(* Storage engine tests: values, tables, databases, executor. *)

open Cdbs_storage

let schema : Schema.t =
  [
    Schema.table "emp" ~primary_key:[ "id" ]
      [
        ("id", Schema.T_int); ("name", Schema.T_string 20);
        ("dept", Schema.T_int); ("salary", Schema.T_float);
      ];
    Schema.table "dept" ~primary_key:[ "did" ]
      [ ("did", Schema.T_int); ("dname", Schema.T_string 20) ];
  ]

let mk_db () =
  let db = Database.create schema in
  let ins name row =
    match Database.insert db name row with
    | Ok () -> ()
    | Error e -> Alcotest.failf "insert failed: %s" e
  in
  List.iter
    (fun (id, name, dept, salary) ->
      ins "emp"
        [|
          Value.Int id; Value.Str name; Value.Int dept; Value.Float salary;
        |])
    [
      (1, "ada", 10, 5000.); (2, "bob", 10, 4000.); (3, "cyd", 20, 6000.);
      (4, "dan", 20, 3500.); (5, "eve", 30, 7000.);
    ];
  List.iter
    (fun (did, dname) -> ins "dept" [| Value.Int did; Value.Str dname |])
    [ (10, "eng"); (20, "ops"); (30, "hr") ];
  db

let query db sql =
  match Executor.execute_sql db sql with
  | Ok (Executor.Rows { columns; rows }) -> (columns, rows)
  | Ok (Executor.Affected _) -> Alcotest.fail "expected rows"
  | Error e -> Alcotest.failf "query failed: %s" e

let dml db sql =
  match Executor.execute_sql db sql with
  | Ok (Executor.Affected n) -> n
  | Ok (Executor.Rows _) -> Alcotest.fail "expected affected count"
  | Error e -> Alcotest.failf "statement failed: %s" e

(* ---------------- values ---------------- *)

let test_value_compare () =
  Alcotest.(check bool) "int vs float" true
    (Value.compare (Value.Int 2) (Value.Float 2.0) = 0);
  Alcotest.(check bool) "ordering" true
    (Value.compare (Value.Int 1) (Value.Float 1.5) < 0);
  Alcotest.(check bool) "null smallest" true
    (Value.compare Value.Null (Value.Int (-100)) < 0)

let test_value_arith () =
  Alcotest.(check bool) "int add" true
    (Value.add (Value.Int 2) (Value.Int 3) = Value.Int 5);
  (match Value.add (Value.Int 2) (Value.Float 0.5) with
  | Value.Float f -> Alcotest.(check (float 1e-9)) "promote" 2.5 f
  | _ -> Alcotest.fail "expected float");
  Alcotest.(check bool) "div by zero is null" true
    (Value.div (Value.Int 1) (Value.Int 0) = Value.Null);
  Alcotest.(check bool) "string arith is null" true
    (Value.add (Value.Str "a") (Value.Int 1) = Value.Null)

(* Equal keys pair exactly what [Value.equal] pairs, at the 2^53 boundary
   and the int extremes too, except where an [Int] beyond 2^53 meets a
   [Float] and [equal] is not transitive. *)
let test_value_key_follows_equal () =
  let p53 = 1 lsl 53 in
  let values =
    Value.
      [
        Int 0; Float 0.; Float (-0.); Int 3; Float 3.; Float 3.5; Int p53;
        Int (p53 + 1); Int (p53 - 1); Float (float_of_int p53);
        Float (float_of_int (p53 - 1)); Int (-p53); Int (-p53 - 1);
        Float (-.float_of_int p53); Int max_int; Int min_int;
        Float (float_of_int max_int); Float (float_of_int min_int); Float nan;
        Float infinity; Str "3"; Bool true; Null;
      ]
  in
  let beyond = function Value.Int i -> i > p53 || i < -p53 | _ -> false in
  let is_float = function Value.Float _ -> true | _ -> false in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let same_key = compare (Value.key a) (Value.key b) = 0 in
          if
            same_key <> Value.equal a b
            && not ((beyond a && is_float b) || (beyond b && is_float a))
          then
            Alcotest.failf "%a and %a: equal %b, same key %b" Value.pp a
              Value.pp b (Value.equal a b) same_key)
        values)
    values

(* ---------------- table ---------------- *)

let find_by_pk tbl key = Option.map (Table.get tbl) (Table.position_of_pk tbl key)

let test_table_pk_duplicate () =
  let db = mk_db () in
  match
    Database.insert db "emp"
      [| Value.Int 1; Value.Str "dup"; Value.Int 1; Value.Float 1. |]
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate primary key accepted"

let test_table_pk_lookup () =
  let db = mk_db () in
  let tbl = Option.get (Database.table db "emp") in
  (match find_by_pk tbl [ Value.Int 3 ] with
  | Some row -> Alcotest.(check bool) "name" true (row.(1) = Value.Str "cyd")
  | None -> Alcotest.fail "pk lookup failed");
  Alcotest.(check bool) "missing pk" true
    (find_by_pk tbl [ Value.Int 99 ] = None)

let test_table_update_refreshes_index () =
  let db = mk_db () in
  let n = dml db "UPDATE emp SET id = 30 WHERE id = 3" in
  Alcotest.(check int) "one row" 1 n;
  let tbl = Option.get (Database.table db "emp") in
  Alcotest.(check bool) "old key gone" true
    (find_by_pk tbl [ Value.Int 3 ] = None);
  Alcotest.(check bool) "new key found" true
    (find_by_pk tbl [ Value.Int 30 ] <> None)

let test_partial_database () =
  let db = Database.create_partial schema ~tables:[ "dept" ] in
  Alcotest.(check (list string)) "only dept" [ "dept" ]
    (Database.table_names db);
  Alcotest.(check bool) "emp missing" true (Database.table db "emp" = None)

let test_copy_table () =
  let src = mk_db () in
  let dst = Database.create_partial schema ~tables:[ "emp" ] in
  (match Database.copy_table_into ~src ~dst "emp" with
  | Ok n -> Alcotest.(check int) "rows copied" 5 n
  | Error e -> Alcotest.failf "copy failed: %s" e);
  Alcotest.(check int) "row count" 5
    (Table.row_count (Option.get (Database.table dst "emp")))

(* ---------------- executor: queries ---------------- *)

let test_select_filter () =
  let db = mk_db () in
  let _, rows = query db "SELECT name FROM emp WHERE salary >= 5000" in
  Alcotest.(check int) "3 high earners" 3 (List.length rows)

let test_select_projection_order () =
  let db = mk_db () in
  let columns, rows =
    query db "SELECT name, salary FROM emp ORDER BY salary DESC LIMIT 2"
  in
  Alcotest.(check (list string)) "columns" [ "name"; "salary" ] columns;
  match rows with
  | [ [| Value.Str "eve"; _ |]; [| Value.Str "cyd"; _ |] ] -> ()
  | _ -> Alcotest.fail "wrong order/limit"

let test_select_join () =
  let db = mk_db () in
  let _, rows =
    query db
      "SELECT name, dname FROM emp JOIN dept ON emp.dept = dept.did WHERE \
       dname = 'ops'"
  in
  Alcotest.(check int) "two ops employees" 2 (List.length rows)

let test_select_cross_join_filtered () =
  let db = mk_db () in
  let _, rows =
    query db "SELECT name FROM emp, dept WHERE dept = did AND dname = 'hr'"
  in
  Alcotest.(check int) "one hr employee" 1 (List.length rows)

let test_aggregates () =
  let db = mk_db () in
  let _, rows = query db "SELECT count(*), sum(salary), avg(salary), min(salary), max(salary) FROM emp" in
  match rows with
  | [ [| Value.Int 5; Value.Float sum; Value.Float avg; mn; mx |] ] ->
      Alcotest.(check (float 1e-6)) "sum" 25500. sum;
      Alcotest.(check (float 1e-6)) "avg" 5100. avg;
      Alcotest.(check bool) "min" true (Value.compare mn (Value.Float 3500.) = 0);
      Alcotest.(check bool) "max" true (Value.compare mx (Value.Float 7000.) = 0)
  | _ -> Alcotest.fail "aggregate row shape"

let test_group_by_having () =
  let db = mk_db () in
  let _, rows =
    query db
      "SELECT dept, count(*) AS n FROM emp GROUP BY dept HAVING count(*) >= \
       2 ORDER BY dept"
  in
  match rows with
  | [ [| Value.Int 10; Value.Int 2 |]; [| Value.Int 20; Value.Int 2 |] ] -> ()
  | _ -> Alcotest.failf "wrong groups (%d rows)" (List.length rows)

let test_aggregate_empty_input () =
  let db = mk_db () in
  let _, rows = query db "SELECT count(*) FROM emp WHERE salary > 100000" in
  match rows with
  | [ [| Value.Int 0 |] ] -> ()
  | _ -> Alcotest.fail "count over empty input should be one row of 0"

let test_distinct () =
  let db = mk_db () in
  let _, rows = query db "SELECT DISTINCT dept FROM emp" in
  Alcotest.(check int) "three departments" 3 (List.length rows)

let test_like_and_in () =
  let db = mk_db () in
  let _, rows = query db "SELECT name FROM emp WHERE name LIKE '%a%'" in
  (* ada and dan contain 'a'. *)
  Alcotest.(check int) "like matches" 2 (List.length rows);
  let _, rows = query db "SELECT name FROM emp WHERE dept IN (10, 30)" in
  Alcotest.(check int) "in matches" 3 (List.length rows)

(* ---------------- executor: DML ---------------- *)

let test_insert_select () =
  let db = mk_db () in
  let n =
    dml db
      "INSERT INTO emp (id, name, dept, salary) VALUES (6, 'fay', 10, 4500)"
  in
  Alcotest.(check int) "inserted" 1 n;
  let _, rows = query db "SELECT name FROM emp WHERE dept = 10" in
  Alcotest.(check int) "now three in eng" 3 (List.length rows)

let test_update_expression () =
  let db = mk_db () in
  let n = dml db "UPDATE emp SET salary = salary * 2 WHERE dept = 10" in
  Alcotest.(check int) "two updated" 2 n;
  let _, rows = query db "SELECT salary FROM emp WHERE name = 'ada'" in
  match rows with
  | [ [| Value.Float s |] ] -> Alcotest.(check (float 1e-6)) "doubled" 10000. s
  | _ -> Alcotest.fail "row shape"

let test_delete () =
  let db = mk_db () in
  let n = dml db "DELETE FROM emp WHERE salary < 4000" in
  Alcotest.(check int) "one deleted" 1 n;
  let _, rows = query db "SELECT id FROM emp" in
  Alcotest.(check int) "four left" 4 (List.length rows)

let test_executor_errors () =
  let db = mk_db () in
  List.iter
    (fun sql ->
      match Executor.execute_sql db sql with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected error for %S" sql)
    [
      "SELECT nope FROM emp";
      "SELECT id FROM missing";
      "INSERT INTO emp (id) VALUES (1, 2)";
      "UPDATE emp SET nope = 1";
      "not sql at all";
    ]

(* A write that fails changes nothing, although its predicate matched
   rows before the one it failed on. *)
let salaries db =
  snd (query db "SELECT id, salary FROM emp ORDER BY id")

let expect_error db sql expected =
  match Executor.execute_sql db sql with
  | Error e -> Alcotest.(check string) sql expected e
  | Ok _ -> Alcotest.failf "expected an error from %S" sql

let test_failed_update_changes_nothing () =
  let db = mk_db () in
  let before = salaries db in
  expect_error db "UPDATE emp SET salary = 0 WHERE id = 1 OR bogus = 2"
    "unknown column bogus";
  Alcotest.(check bool) "rows unchanged" true (salaries db = before)

let test_failed_delete_changes_nothing () =
  let db = mk_db () in
  let before = salaries db in
  expect_error db "DELETE FROM emp WHERE id = 1 OR bogus = 2"
    "unknown column bogus";
  Alcotest.(check bool) "rows unchanged" true (salaries db = before)

let test_update_keeps_keys_unique () =
  let db = mk_db () in
  let before = salaries db in
  expect_error db "UPDATE emp SET id = 1 WHERE id = 2"
    "update: duplicate primary key";
  Alcotest.(check bool) "rows unchanged" true (salaries db = before);
  let tbl = Option.get (Database.table db "emp") in
  (match find_by_pk tbl [ Value.Int 2 ] with
  | Some row -> Alcotest.(check bool) "id 2 is bob" true (row.(1) = Value.Str "bob")
  | None -> Alcotest.fail "id 2 lost");
  (* Keys may still trade places within one statement. *)
  Alcotest.(check int) "swap" 2
    (dml db "UPDATE emp SET id = 3 - id WHERE id <= 2");
  match find_by_pk tbl [ Value.Int 1 ] with
  | Some row -> Alcotest.(check bool) "id 1 is bob" true (row.(1) = Value.Str "bob")
  | None -> Alcotest.fail "id 1 lost"

(* One equality rule: the hash join, the primary-key index, GROUP BY and
   DISTINCT pair an [Int] with the [Float] it equals, as predicates do. *)
let count db sql =
  match query db sql with
  | _, [ [| Value.Int n |] ] -> n
  | _ -> Alcotest.failf "%s: expected one count" sql

let test_join_pairs_int_float () =
  let db =
    Cdbs_workloads.Tpch.linked_database ~rng:(Cdbs_util.Rng.create 1)
      ~rows:
        [
          ("supplier", 10); ("customer", 60); ("part", 80); ("partsupp", 320);
          ("orders", 300); ("lineitem", 1200);
        ]
  in
  let joined = count db "SELECT count(*) FROM lineitem JOIN part ON l_quantity = p_size" in
  Alcotest.(check int) "hash join = filtered cross product"
    (count db "SELECT count(*) FROM lineitem, part WHERE l_quantity = p_size")
    joined;
  Alcotest.(check bool) "Float quantities meet Int sizes" true (joined > 0)

let test_key_pairs_int_float () =
  let db = mk_db () in
  expect_error db "INSERT INTO emp VALUES (2.0, 'fay', 20, 300.0)"
    "insert: duplicate primary key";
  expect_error db "UPDATE emp SET id = 2.0 WHERE id = 1"
    "update: duplicate primary key";
  Alcotest.(check int) "one row with id 2" 1
    (count db "SELECT count(*) FROM emp WHERE id = 2");
  Alcotest.(check int) "a float literal finds the int key" 1
    (dml db "UPDATE emp SET salary = 1.0 WHERE id = 2.0")

let test_grouping_pairs_int_float () =
  let db = mk_db () in
  ignore (dml db "INSERT INTO emp VALUES (6, 'fay', 20.0, 300.0)");
  let _, groups = query db "SELECT dept, count(*) FROM emp GROUP BY dept" in
  Alcotest.(check int) "one group per department" 3 (List.length groups);
  Alcotest.(check bool) "fay joins department 20" true
    (List.mem [| Value.Int 20; Value.Int 3 |] groups);
  let _, depts = query db "SELECT DISTINCT dept FROM emp" in
  Alcotest.(check int) "each department once" 3 (List.length depts)

(* Property: generated rows survive a write-read round trip. *)
let prop_datagen_rows_valid =
  QCheck.Test.make ~count:30 ~name:"datagen produces valid rows"
    QCheck.(int_range 1 200)
    (fun rows ->
      let db = Database.create schema in
      Datagen.populate
        (Cdbs_util.Rng.create rows)
        db
        ~rows_per_table:[ ("emp", rows); ("dept", rows) ];
      let emp = Option.get (Database.table db "emp") in
      Table.row_count emp = rows && Table.byte_size emp > 0)

let suite =
  [
    Alcotest.test_case "value: compare" `Quick test_value_compare;
    Alcotest.test_case "value: arithmetic" `Quick test_value_arith;
    Alcotest.test_case "value: keys pair what equal pairs" `Quick
      test_value_key_follows_equal;
    Alcotest.test_case "table: duplicate pk" `Quick test_table_pk_duplicate;
    Alcotest.test_case "table: pk lookup" `Quick test_table_pk_lookup;
    Alcotest.test_case "table: update refreshes index" `Quick
      test_table_update_refreshes_index;
    Alcotest.test_case "database: partial" `Quick test_partial_database;
    Alcotest.test_case "database: bulk copy" `Quick test_copy_table;
    Alcotest.test_case "executor: filter" `Quick test_select_filter;
    Alcotest.test_case "executor: projection/order/limit" `Quick
      test_select_projection_order;
    Alcotest.test_case "executor: equi-join" `Quick test_select_join;
    Alcotest.test_case "executor: comma join" `Quick
      test_select_cross_join_filtered;
    Alcotest.test_case "executor: aggregates" `Quick test_aggregates;
    Alcotest.test_case "executor: group by / having" `Quick
      test_group_by_having;
    Alcotest.test_case "executor: empty aggregate" `Quick
      test_aggregate_empty_input;
    Alcotest.test_case "executor: distinct" `Quick test_distinct;
    Alcotest.test_case "executor: like / in" `Quick test_like_and_in;
    Alcotest.test_case "executor: insert" `Quick test_insert_select;
    Alcotest.test_case "executor: update expression" `Quick
      test_update_expression;
    Alcotest.test_case "executor: delete" `Quick test_delete;
    Alcotest.test_case "executor: error cases" `Quick test_executor_errors;
    Alcotest.test_case "executor: a failing UPDATE changes nothing" `Quick
      test_failed_update_changes_nothing;
    Alcotest.test_case "executor: a failing DELETE changes nothing" `Quick
      test_failed_delete_changes_nothing;
    Alcotest.test_case "executor: UPDATE keeps primary keys unique" `Quick
      test_update_keeps_keys_unique;
    Alcotest.test_case "executor: a hash join pairs Int and Float keys" `Quick
      test_join_pairs_int_float;
    Alcotest.test_case "executor: primary keys pair Int and Float" `Quick
      test_key_pairs_int_float;
    Alcotest.test_case "executor: GROUP BY and DISTINCT pair Int and Float"
      `Quick test_grouping_pairs_int_float;
    QCheck_alcotest.to_alcotest prop_datagen_rows_valid;
  ]
