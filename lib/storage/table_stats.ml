open Cdbs_sql.Ast

type column_stats = {
  distinct : int;
  min_value : Value.t option;
  max_value : Value.t option;
}

type t = {
  source : Table.t option;
  version : int;  (** the source's {!Table.version} at {!collect} *)
  rows : int;
  bytes : int;
  columns : (string, column_stats option) Hashtbl.t;  (** computed so far *)
}

let empty =
  { source = None; version = 0; rows = 0; bytes = 0; columns = Hashtbl.create 0 }

let collect tbl =
  {
    source = Some tbl;
    version = Table.version tbl;
    rows = Table.row_count tbl;
    bytes = Table.byte_size tbl;
    columns = Hashtbl.create 4;
  }

let scan_column tbl i =
  let seen = Hashtbl.create 64 in
  let min_value = ref None and max_value = ref None in
  Table.iter
    (fun row ->
      let v = row.(i) in
      if v <> Value.Null then begin
        Hashtbl.replace seen (Value.key v) ();
        (match !min_value with
        | None -> min_value := Some v
        | Some m -> if Value.compare v m < 0 then min_value := Some v);
        match !max_value with
        | None -> max_value := Some v
        | Some m -> if Value.compare v m > 0 then max_value := Some v
      end)
    tbl;
  {
    distinct = Hashtbl.length seen;
    min_value = !min_value;
    max_value = !max_value;
  }

let column t name =
  match t.source with
  | None -> None
  | Some tbl -> (
      match Hashtbl.find_opt t.columns name with
      | Some st -> st
      | None ->
          let st =
            Option.map
              (fun i ->
                if Table.version tbl <> t.version then
                  invalid_arg "Table_stats.column: the table changed since collect";
                scan_column tbl i)
              (Table.column_index tbl name)
          in
          Hashtbl.replace t.columns name st;
          st)

let default_eq = 0.05
let default_range = 0.3
let default_like = 0.1

let column_of = function
  | Column (_, c) -> Some c
  | _ -> None

(* Fraction of column c's [min, max] span below value v.  A value with no
   numeric reading has none, whatever the column holds, so its statistics
   are not computed. *)
let position t c v =
  match Value.to_float v with
  | None -> None
  | Some v -> (
      match column t c with
      | Some { min_value = Some mn; max_value = Some mx; _ } -> (
          match (Value.to_float mn, Value.to_float mx) with
          | Some mn, Some mx when mx > mn ->
              Some (max 0. (min 1. ((v -. mn) /. (mx -. mn))))
          | _ -> None)
      | _ -> None)

let rec selectivity t (e : expr) : float =
  match e with
  | Binop (And, a, b) -> selectivity t a *. selectivity t b
  | Binop (Or, a, b) -> min 1. (selectivity t a +. selectivity t b)
  | Not a -> max 0. (1. -. selectivity t a)
  | Binop (Eq, a, b) -> (
      match (column_of a, column_of b) with
      | Some c, None | None, Some c -> (
          match column t c with
          | Some st when st.distinct > 0 -> 1. /. float_of_int st.distinct
          | _ -> default_eq)
      | Some _, Some _ ->
          (* join-style equality: key/foreign-key assumption *)
          default_eq
      | None, None -> default_eq)
  | Binop (Neq, a, b) -> max 0. (1. -. selectivity t (Binop (Eq, a, b)))
  | Binop (((Lt | Le | Gt | Ge) as op), a, b) -> (
      let estimate col v ~below =
        match position t col v with
        | None -> default_range
        | Some p -> if below then p else 1. -. p
      in
      match (column_of a, b) with
      | Some c, Lit l ->
          estimate c (Value.of_literal l) ~below:(op = Lt || op = Le)
      | _ -> (
          match (a, column_of b) with
          | Lit l, Some c ->
              (* literal op column flips direction *)
              estimate c (Value.of_literal l) ~below:(op = Gt || op = Ge)
          | _ -> default_range))
  | Between (a, Lit lo, Lit hi) -> (
      match column_of a with
      | Some c -> (
          match
            ( position t c (Value.of_literal lo),
              position t c (Value.of_literal hi) )
          with
          | Some plo, Some phi -> max 0. (phi -. plo)
          | _ -> default_range)
      | None -> default_range)
  | Between _ -> default_range
  | In_list (a, items) ->
      let eq_sel =
        selectivity t (Binop (Eq, a, Lit (Int 0)))
      in
      min 1. (eq_sel *. float_of_int (List.length items))
  | Like _ -> default_like
  | Lit (Bool b) -> if b then 1. else 0.
  | Lit _ | Column _ | Call _ | Star -> 1.
  | Binop ((Add | Sub | Mul | Div), _, _) -> 1.

let estimate_rows t = function
  | None -> float_of_int t.rows
  | Some e -> float_of_int t.rows *. selectivity t e

let estimate_scan_bytes t pred =
  if t.rows = 0 then 0.
  else
    let per_row = float_of_int t.bytes /. float_of_int t.rows in
    (* A scan reads everything; its output volume scales with
       selectivity.  Cost = read + produce. *)
    float_of_int t.bytes +. (estimate_rows t pred *. per_row)
