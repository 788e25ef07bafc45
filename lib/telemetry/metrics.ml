type counter = { mutable c_value : int }

type t = {
  counters_tbl : (string, counter) Hashtbl.t;
  histos_tbl : (string, Histogram.t) Hashtbl.t;
}

let create () =
  {
    counters_tbl = Hashtbl.create 16;
    histos_tbl = Hashtbl.create 16;
  }

let counter t name =
  match Hashtbl.find_opt t.counters_tbl name with
  | Some c -> c
  | None ->
      let c = { c_value = 0 } in
      Hashtbl.add t.counters_tbl name c;
      c

let add c n = c.c_value <- c.c_value + n

let histogram t name =
  match Hashtbl.find_opt t.histos_tbl name with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      Hashtbl.add t.histos_tbl name h;
      h

let find_counter t name =
  Option.map (fun c -> c.c_value) (Hashtbl.find_opt t.counters_tbl name)

let find_histogram t name = Hashtbl.find_opt t.histos_tbl name
