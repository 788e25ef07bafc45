module Vec = Cdbs_util.Vec

type entry = {
  sql : string;
  cost : float;
  at : float;
}

type t = entry Vec.t

let create () = Vec.create ()

let record_at t ~at ~sql ~cost = Vec.push t { sql; cost; at }
let record t ~sql ~cost = record_at t ~at:0. ~sql ~cost

let length = Vec.length
let entries t = Vec.to_list t
let occurrences t =
  let counts = Hashtbl.create 64 in
  Vec.iter
    (fun e ->
      Hashtbl.replace counts e.sql
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts e.sql)))
    t;
  Hashtbl.fold (fun sql n acc -> (sql, n) :: acc) counts []
  |> List.sort compare

let between t ~lo ~hi =
  let out = create () in
  Vec.iter (fun e -> if e.at >= lo && e.at < hi then Vec.push out e) t;
  out

let save_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "# cdbs journal: cost|at|sql\n";
      Vec.iter
        (fun e -> Printf.fprintf oc "%.6f|%.3f|%s\n" e.cost e.at e.sql)
        t)

let parse_line line =
  match String.split_on_char '|' line with
  | [ sql ] -> Some { sql; cost = 1.; at = 0. }
  | cost :: rest -> (
      match float_of_string_opt (String.trim cost) with
      | None -> Some { sql = line; cost = 1.; at = 0. }
      | Some cost -> (
          match rest with
          | [ sql ] -> Some { sql; cost; at = 0. }
          | at :: sql_parts -> (
              match float_of_string_opt (String.trim at) with
              | Some at ->
                  Some { sql = String.concat "|" sql_parts; cost; at }
              | None ->
                  Some { sql = String.concat "|" rest; cost; at = 0. })
          | [] -> None))
  | [] -> None

let load_file path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
      let t = create () in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          try
            while true do
              let line = String.trim (input_line ic) in
              if line <> "" && line.[0] <> '#' then
                Option.iter (Vec.push t) (parse_line line)
            done;
            assert false
          with End_of_file -> Ok t)
