module Rng = Cdbs_util.Rng

let random_string rng width =
  let len = max 1 (width / 2 + Rng.int rng (max 1 width)) in
  String.init len (fun _ -> Char.chr (Char.code 'a' + Rng.int rng 26))

let random_value rng = function
  | Schema.T_int -> Value.Int (Rng.int rng 1_000_000)
  | Schema.T_float -> Value.Float (Rng.float rng 10_000.)
  | Schema.T_string w -> Value.Str (random_string rng w)
  | Schema.T_bool -> Value.Bool (Rng.bool rng)

(* Fill a table with [rows] generated rows.  Primary-key columns receive
   the row number (starting at 1); other columns receive random values. *)
let populate_table rng tbl ~rows =
  let schema = Table.schema tbl in
  let pk = schema.Schema.primary_key in
  for i = 1 to rows do
    let row =
      Array.of_list
        (List.map
           (fun c ->
             if List.mem c.Schema.col_name pk then Value.Int i
             else random_value rng c.Schema.col_type)
           schema.Schema.columns)
    in
    match Table.insert tbl row with
    | Ok () -> ()
    | Error _ ->
        (* Composite keys can collide on the sequential scheme; skip. *)
        ()
  done

let populate rng db ~rows_per_table =
  List.iter
    (fun (name, rows) ->
      match Database.table db name with
      | Some tbl -> populate_table rng tbl ~rows
      | None -> ())
    rows_per_table
