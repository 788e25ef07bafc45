(* Table statistics / selectivity estimation and the primary-key index. *)

open Cdbs_storage
module Ast = Cdbs_sql.Ast

let schema : Schema.t =
  [
    Schema.table "m" ~primary_key:[ "id" ]
      [
        ("id", Schema.T_int); ("grp", Schema.T_int); ("v", Schema.T_float);
        ("tag", Schema.T_string 10);
      ];
  ]

(* 100 rows: id 1..100, grp = id mod 10, v = float id. *)
let mk_table () =
  let db = Database.create schema in
  let tbl = Option.get (Database.table db "m") in
  for i = 1 to 100 do
    match
      Table.insert tbl
        [|
          Value.Int i; Value.Int (i mod 10); Value.Float (float_of_int i);
          Value.Str (if i mod 2 = 0 then "even" else "odd");
        |]
    with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  done;
  (db, tbl)

let expr s = Cdbs_sql.Parser.parse_expr s

(* ---------------- statistics ---------------- *)

let test_collect () =
  let _, tbl = mk_table () in
  let st = Table_stats.collect tbl in
  let grp = Option.get (Table_stats.column st "grp") in
  Alcotest.(check int) "grp distinct" 10 grp.Table_stats.distinct;
  let id = Option.get (Table_stats.column st "id") in
  Alcotest.(check bool) "id min" true
    (id.Table_stats.min_value = Some (Value.Int 1));
  Alcotest.(check bool) "id max" true
    (id.Table_stats.max_value = Some (Value.Int 100))

let test_selectivity_equality () =
  let _, tbl = mk_table () in
  let st = Table_stats.collect tbl in
  Alcotest.(check (float 1e-9)) "grp = 3 is 1/10" 0.1
    (Table_stats.selectivity st (expr "grp = 3"));
  Alcotest.(check (float 1e-9)) "id = 5 is 1/100" 0.01
    (Table_stats.selectivity st (expr "id = 5"))

let test_selectivity_range () =
  let _, tbl = mk_table () in
  let st = Table_stats.collect tbl in
  (* id < 50 covers about half the [1,100] span. *)
  let s = Table_stats.selectivity st (expr "id < 50") in
  Alcotest.(check bool) "about half" true (abs_float (s -. 0.5) < 0.02);
  let s2 = Table_stats.selectivity st (expr "id BETWEEN 20 AND 40") in
  Alcotest.(check bool) "about a fifth" true (abs_float (s2 -. 0.2) < 0.02)

let test_selectivity_compound () =
  let _, tbl = mk_table () in
  let st = Table_stats.collect tbl in
  let a = Table_stats.selectivity st (expr "grp = 3 AND id < 50") in
  Alcotest.(check bool) "conjunction multiplies" true
    (abs_float (a -. 0.05) < 0.01);
  let o = Table_stats.selectivity st (expr "grp = 3 OR grp = 4") in
  Alcotest.(check (float 1e-9)) "disjunction adds" 0.2 o;
  let n = Table_stats.selectivity st (expr "NOT grp = 3") in
  Alcotest.(check (float 1e-9)) "negation complements" 0.9 n

let test_estimate_rows () =
  let _, tbl = mk_table () in
  let st = Table_stats.collect tbl in
  Alcotest.(check (float 1e-6)) "all rows" 100.
    (Table_stats.estimate_rows st None);
  Alcotest.(check (float 1e-6)) "tenth" 10.
    (Table_stats.estimate_rows st (Some (expr "grp = 7")))

let test_scan_bytes_monotone () =
  let _, tbl = mk_table () in
  let st = Table_stats.collect tbl in
  let full = Table_stats.estimate_scan_bytes st None in
  let filtered = Table_stats.estimate_scan_bytes st (Some (expr "grp = 7")) in
  Alcotest.(check bool) "filter cheaper" true (filtered < full);
  Alcotest.(check bool) "but still reads the table" true
    (filtered > float_of_int (Table.byte_size tbl) -. 1.)

(* Property: for random predicates over the generated table, the estimated
   selectivity brackets the true one within a loose factor. *)
let prop_selectivity_sane =
  QCheck.Test.make ~count:50 ~name:"estimated selectivity stays in [0,1]"
    QCheck.(int_range 0 9)
    (fun g ->
      let _, tbl = mk_table () in
      let st = Table_stats.collect tbl in
      let s =
        Table_stats.selectivity st (expr (Printf.sprintf "grp = %d" g))
      in
      s >= 0. && s <= 1.)

(* ---------------- statistics through the controller ---------------- *)

module Rng = Cdbs_util.Rng

let stats_literal rng =
  match Rng.int rng 5 with
  | 0 -> string_of_int (Rng.int rng 1_000_000)
  | 1 -> string_of_int (Rng.int rng 40)
  | 2 -> Printf.sprintf "%d.5" (Rng.int rng 1000)
  | 3 -> Printf.sprintf "'%c'" (Char.chr (97 + Rng.int rng 26))
  | _ -> "NULL"

(* Random single-table predicates over [m]: =, <>, ranges either way
   round, BETWEEN, IN and LIKE, under AND, OR and NOT. *)
let rec stats_predicate rng depth =
  if depth = 0 || Rng.int rng 3 = 0 then
    let c = Rng.pick rng [| "id"; "grp"; "v"; "tag" |] in
    let l () = stats_literal rng in
    match Rng.int rng 9 with
    | 0 -> Printf.sprintf "%s = %s" c (l ())
    | 1 -> Printf.sprintf "%s <> %s" c (l ())
    | 2 -> Printf.sprintf "%s < %s" c (l ())
    | 3 -> Printf.sprintf "%s <= %s" c (l ())
    | 4 -> Printf.sprintf "%s > %s" (l ()) c
    | 5 -> Printf.sprintf "%s >= %s" c (l ())
    | 6 -> Printf.sprintf "%s BETWEEN %s AND %s" c (l ()) (l ())
    | 7 -> Printf.sprintf "%s IN (%s, %s, %s)" c (l ()) (l ()) (l ())
    | _ -> Printf.sprintf "%s LIKE '%%a%%'" c
  else
    let sub () = stats_predicate rng (depth - 1) in
    match Rng.int rng 3 with
    | 0 -> Printf.sprintf "(%s AND %s)" (sub ()) (sub ())
    | 1 -> Printf.sprintf "(%s OR %s)" (sub ()) (sub ())
    | _ -> Printf.sprintf "NOT (%s)" (sub ())

let stats_write rng ~next_id =
  let small () = if Rng.int rng 4 = 0 then "NULL" else string_of_int (Rng.int rng 6) in
  match Rng.int rng 4 with
  | 0 ->
      incr next_id;
      Printf.sprintf "INSERT INTO m (id, grp, v, tag) VALUES (%d, %s, %s, %s)"
        !next_id (small ())
        (if Rng.bool rng then Printf.sprintf "%d.25" (Rng.int rng 100) else "NULL")
        (if Rng.bool rng then "'odd'" else "NULL")
  | 1 ->
      Printf.sprintf "UPDATE m SET grp = %s WHERE %s" (small ())
        (stats_predicate rng 2)
  | 2 ->
      Printf.sprintf "UPDATE m SET v = v * 2, tag = 'b' WHERE %s"
        (stats_predicate rng 2)
  | _ -> Printf.sprintf "DELETE FROM m WHERE %s" (stats_predicate rng 2)

(* The cost the controller journals for a statement on [m], from
   statistics collected afresh on the reference copy. *)
let fresh_cost tbl sql =
  let where =
    match Cdbs_sql.Parser.parse sql with
    | Ast.Select { where; _ } | Ast.Update { where; _ } | Ast.Delete { where; _ } ->
        where
    | Ast.Insert _ -> None
  in
  0.001 +. (Table_stats.estimate_scan_bytes (Table_stats.collect tbl) where /. 1048576.)

(* The controller caches each table's statistics until a write drops
   them.  Through random INSERTs, UPDATEs and DELETEs, every journal cost
   it records for a statement on the table equals, bit for bit, the cost
   from a fresh [Table_stats.collect] of the same rows. *)
let prop_cached_stats_equal_fresh =
  QCheck.Test.make ~count:20
    ~name:"controller's cached statistics equal a fresh collect"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let rows = [ ("m", 30) ] in
      let ctl = Cdbs_cluster.Controller.create ~schema ~rows ~backends:1 ~seed in
      let reference = Database.create schema in
      Datagen.populate (Rng.create seed) reference ~rows_per_table:rows;
      let tbl = Option.get (Database.table reference "m") in
      let rng = Rng.create (seed + 1) in
      let next_id = ref 1_000 in
      let expected = ref [] in
      let run sql =
        expected := fresh_cost tbl sql :: !expected;
        (match Cdbs_cluster.Controller.submit ctl sql with
        | Ok _ -> ()
        | Error e -> QCheck.Test.fail_reportf "%s: %s" sql e);
        ignore (Executor.execute_sql reference sql)
      in
      for _ = 1 to 12 do
        run (stats_write rng ~next_id);
        for _ = 1 to 4 do
          run ("SELECT id FROM m WHERE " ^ stats_predicate rng 3)
        done
      done;
      let got =
        List.map
          (fun (e : Cdbs_core.Journal.entry) -> e.Cdbs_core.Journal.cost)
          (Cdbs_core.Journal.entries (Cdbs_cluster.Controller.journal ctl))
      in
      List.equal
        (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
        got (List.rev !expected))

(* Writes refresh only the index entries and byte counts of the rows they
   touch.  Through random INSERTs, UPDATEs (keys moved and traded
   included) and DELETEs, every primary-key entry and the byte count stay
   what a fresh scan gives. *)
let prop_indexes_follow_writes =
  QCheck.Test.make ~count:30 ~name:"indexes and byte size follow random writes"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let db, tbl = mk_table () in
      ignore (Table.byte_size tbl);
      let rng = Rng.create seed in
      let next_id = ref 1_000 in
      let exact () =
        let rows = List.rev (Table.fold (fun acc r -> r :: acc) [] tbl) in
        let keys_ok = ref true in
        Table.iteri
          (fun i r -> if Table.position_of_pk tbl [ r.(0) ] <> Some i then keys_ok := false)
          tbl;
        !keys_ok
        && Table.byte_size tbl
           = List.fold_left
               (fun acc r -> Array.fold_left (fun a v -> a + Value.byte_size v) acc r)
               0 rows
      in
      List.for_all
        (fun _ ->
          let sql =
            match Rng.int rng 3 with
            | 0 -> Printf.sprintf "UPDATE m SET id = id + %d WHERE grp = %d" (Rng.int rng 50) (Rng.int rng 6)
            | 1 -> Printf.sprintf "UPDATE m SET id = %d - id WHERE id < %d" (50 + Rng.int rng 100) (Rng.int rng 60)
            | _ -> stats_write rng ~next_id
          in
          ignore (Executor.execute_sql db sql);
          exact ())
        (List.init 15 Fun.id))

let suite =
  [
    Alcotest.test_case "stats: collect" `Quick test_collect;
    Alcotest.test_case "stats: equality selectivity" `Quick
      test_selectivity_equality;
    Alcotest.test_case "stats: range selectivity" `Quick
      test_selectivity_range;
    Alcotest.test_case "stats: compound predicates" `Quick
      test_selectivity_compound;
    Alcotest.test_case "stats: row estimates" `Quick test_estimate_rows;
    Alcotest.test_case "stats: scan bytes" `Quick test_scan_bytes_monotone;
    QCheck_alcotest.to_alcotest prop_selectivity_sane;
    QCheck_alcotest.to_alcotest prop_cached_stats_equal_fresh;
    QCheck_alcotest.to_alcotest prop_indexes_follow_writes;
  ]
