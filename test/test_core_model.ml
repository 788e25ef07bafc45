(* Core model tests: fragments, query classes, workloads, journal,
   classification. *)

open Cdbs_core

let fr ?(size = 1.) name = Fragment.table name ~size

(* ---------------- fragments ---------------- *)

let test_fragment_identity () =
  (* Identity ignores the size: the same fragment measured differently is
     still the same fragment. *)
  let a1 = Fragment.table "A" ~size:1. in
  let a2 = Fragment.table "A" ~size:99. in
  Alcotest.(check bool) "equal" true (Fragment.equal a1 a2);
  Alcotest.(check int) "set collapses" 1
    (Fragment.Set.cardinal (Fragment.Set.of_list [ a1; a2 ]))

let test_fragment_names () =
  Alcotest.(check string) "table" "t" (Fragment.name (fr "t"));
  Alcotest.(check string) "column" "t.c"
    (Fragment.name
       { Fragment.kind = Column { table = "t"; column = "c" }; size = 1. });
  Alcotest.(check string) "range" "t.c[0,10)"
    (Fragment.name (Fragment.range "t" "c" ~lo:0. ~hi:10. ~size:1.))

let test_set_size () =
  let s =
    Fragment.Set.of_list [ fr ~size:2. "a"; fr ~size:3. "b" ]
  in
  Alcotest.(check (float 1e-9)) "sum" 5. (Fragment.set_size s)

(* ---------------- query classes / workload ---------------- *)

let test_class_overlap () =
  let c1 = Query_class.read "c1" [ fr "a"; fr "b" ] ~weight:0.5 in
  let c2 = Query_class.read "c2" [ fr "b"; fr "c" ] ~weight:0.5 in
  let c3 = Query_class.read "c3" [ fr "d" ] ~weight:0.0 in
  Alcotest.(check bool) "overlap" true (Query_class.overlaps c1 c2);
  Alcotest.(check bool) "no overlap" false (Query_class.overlaps c1 c3)

let test_updates_of () =
  let w =
    Workload.make
      ~reads:[ Query_class.read "q" [ fr "a"; fr "b" ] ~weight:0.8 ]
      ~updates:
        [
          Query_class.update "u1" [ fr "a" ] ~weight:0.1;
          Query_class.update "u2" [ fr "c" ] ~weight:0.1;
        ]
  in
  let q = Option.get (Workload.find w "q") in
  Alcotest.(check (list string)) "only overlapping updates" [ "u1" ]
    (List.map (fun u -> u.Query_class.id) (Workload.updates_of w q));
  Alcotest.(check (float 1e-9)) "update weight" 0.1
    (Workload.update_weight_of w q)

let test_workload_normalize () =
  let w =
    Workload.make
      ~reads:[ Query_class.read "q" [ fr "a" ] ~weight:3. ]
      ~updates:[ Query_class.update "u" [ fr "a" ] ~weight:1. ]
  in
  let n = Workload.normalize w in
  Alcotest.(check (float 1e-9)) "sums to 1" 1. (Workload.total_weight n);
  Alcotest.(check (float 1e-9)) "ratio preserved" 0.75
    (Option.get (Workload.find n "q")).Query_class.weight

let test_workload_validate () =
  let module Diagnostic = Cdbs_analysis.Diagnostic in
  let errors w = Diagnostic.errors (Cdbs_analysis.Check_workload.check w) in
  let ok =
    Workload.make
      ~reads:[ Query_class.read "q" [ fr "a" ] ~weight:1. ]
      ~updates:[]
  in
  (match errors ok with
  | [] -> ()
  | d :: _ -> Alcotest.failf "valid workload rejected: %a" Diagnostic.pp d);
  let dup =
    Workload.make
      ~reads:
        [
          Query_class.read "q" [ fr "a" ] ~weight:0.5;
          Query_class.read "q" [ fr "b" ] ~weight:0.5;
        ]
      ~updates:[]
  in
  (match errors dup with
  | _ :: _ -> ()
  | [] -> Alcotest.fail "duplicate ids accepted");
  let bad_sum =
    Workload.make
      ~reads:[ Query_class.read "q" [ fr "a" ] ~weight:0.4 ]
      ~updates:[]
  in
  match errors bad_sum with
  | _ :: _ -> ()
  | [] -> Alcotest.fail "weights not summing to 1 accepted"

(* ---------------- journal ---------------- *)

let test_journal_multiset () =
  let j = Journal.create () in
  Journal.record j ~sql:"SELECT a FROM t" ~cost:1.;
  Journal.record j ~sql:"SELECT a FROM t" ~cost:2.;
  Journal.record j ~sql:"SELECT b FROM t" ~cost:3.;
  Alcotest.(check int) "length" 3 (Journal.length j);
  Alcotest.(check (float 1e-9)) "total cost" 6. (List.fold_left
       (fun acc (e : Journal.entry) -> acc +. e.Journal.cost)
       0. (Journal.entries j));
  Alcotest.(check (list (pair string int)))
    "occurrences"
    [ ("SELECT a FROM t", 2); ("SELECT b FROM t", 1) ]
    (Journal.occurrences j)

let test_journal_between () =
  let j = Journal.create () in
  List.iter
    (fun at -> Journal.record_at j ~at ~sql:"q" ~cost:1.)
    [ 0.; 10.; 20.; 30. ];
  Alcotest.(check int) "window" 2 (Journal.length (Journal.between j ~lo:10. ~hi:30.))

(* ---------------- classification ---------------- *)

let schema : Cdbs_storage.Schema.t =
  [
    Cdbs_storage.Schema.table "t"
      [ ("a", Cdbs_storage.Schema.T_int); ("b", Cdbs_storage.Schema.T_int) ];
    Cdbs_storage.Schema.table "u" [ ("c", Cdbs_storage.Schema.T_int) ];
  ]

let size_of _ = 1.

let journal_of stmts =
  let j = Journal.create () in
  List.iter (fun (sql, cost) -> Journal.record j ~sql ~cost) stmts;
  j

let test_classify_by_table () =
  let j =
    journal_of
      [
        ("SELECT a FROM t", 2.);
        ("SELECT b FROM t", 2.);
        ("SELECT c FROM u", 1.);
        ("UPDATE u SET c = 1", 1.);
      ]
  in
  let w = Classification.classify ~schema ~size_of Classification.By_table j in
  Alcotest.(check int) "read classes" 2 (List.length w.Workload.reads);
  Alcotest.(check int) "update classes" 1 (List.length w.Workload.updates);
  Alcotest.(check (float 1e-9)) "normalized" 1. (Workload.total_weight w);
  (* The t-class has 4 of 6 cost units. *)
  let heaviest = List.hd w.Workload.reads in
  Alcotest.(check (float 1e-9))
    "heaviest weight"
    (4. /. 6.)
    heaviest.Query_class.weight

let test_classify_by_column () =
  let j =
    journal_of
      [ ("SELECT a FROM t", 1.); ("SELECT b FROM t", 1.) ]
  in
  let w =
    Classification.classify ~schema ~size_of Classification.By_column j
  in
  (* Different column sets -> different classes. *)
  Alcotest.(check int) "two classes" 2 (List.length w.Workload.reads)

let test_classify_single () =
  let j =
    journal_of [ ("SELECT a FROM t", 1.); ("SELECT c FROM u", 1.) ]
  in
  let w = Classification.classify ~schema ~size_of Classification.Single j in
  Alcotest.(check int) "one class" 1 (List.length w.Workload.reads);
  let c = List.hd w.Workload.reads in
  Alcotest.(check int) "all tables" 2
    (Fragment.Set.cardinal c.Query_class.fragments)

let test_classify_by_predicate () =
  let j =
    journal_of
      [
        ("SELECT a FROM t WHERE a <= 49", 1.);
        ("SELECT a FROM t WHERE a >= 50", 1.);
        ("SELECT a FROM t", 1.);
      ]
  in
  let w =
    Classification.classify ~schema ~size_of
      (Classification.By_predicate [ ("t", "a", [ 50. ]) ])
      j
  in
  (* Three distinct footprints: below, above, both ranges.  (Interval
     bounds are conservative about open endpoints, so the below-query uses
     "<= 49" to stay clear of the 50 boundary.) *)
  Alcotest.(check int) "three classes" 3 (List.length w.Workload.reads);
  let sizes =
    List.sort compare
      (List.map
         (fun c -> Fragment.Set.cardinal c.Query_class.fragments)
         w.Workload.reads)
  in
  Alcotest.(check (list int)) "fragment counts" [ 1; 1; 2 ] sizes

let test_classify_skips_garbage () =
  let j = journal_of [ ("SELECT a FROM t", 1.); ("NOT SQL", 5.) ] in
  let w = Classification.classify ~schema ~size_of Classification.By_table j in
  Alcotest.(check int) "garbage skipped" 1 (List.length w.Workload.reads)

let test_default_sizes () =
  let rows = [ ("t", 1_048_576) ] in
  let size = Classification.default_sizes ~schema ~rows in
  (* t has two int columns of 8 bytes: 16 MB total at 2^20 rows. *)
  Alcotest.(check (float 1e-6)) "table size" 16. (size (Fragment.Table "t"));
  Alcotest.(check (float 1e-6)) "column size" 8.
    (size (Fragment.Column { table = "t"; column = "a" }));
  Alcotest.(check (float 1e-6)) "unknown table" 0.
    (size (Fragment.Table "nope"))

let test_journal_file_roundtrip () =
  let j = Journal.create () in
  Journal.record_at j ~at:1. ~sql:"SELECT a FROM t" ~cost:2.5;
  Journal.record_at j ~at:2. ~sql:"SELECT b FROM t WHERE x LIKE 'a|b'" ~cost:0.5;
  let path = Filename.temp_file "cdbs" ".journal" in
  Journal.save_file j path;
  (match Journal.load_file path with
  | Error e -> Alcotest.fail e
  | Ok j' ->
      Alcotest.(check int) "length" 2 (Journal.length j');
      let e = List.nth (Journal.entries j') 1 in
      (* The '|' inside the SQL must survive the separator. *)
      Alcotest.(check string) "sql with pipe"
        "SELECT b FROM t WHERE x LIKE 'a|b'" e.Journal.sql;
      Alcotest.(check (float 1e-6)) "cost" 0.5 e.Journal.cost;
      Alcotest.(check (float 1e-6)) "at" 2. e.Journal.at);
  Sys.remove path

let test_journal_file_tolerant () =
  let path = Filename.temp_file "cdbs" ".journal" in
  let oc = open_out path in
  output_string oc
    "# comment\n\nSELECT bare FROM t\n2.5|SELECT with_cost FROM t\n";
  close_out oc;
  (match Journal.load_file path with
  | Error e -> Alcotest.fail e
  | Ok j ->
      Alcotest.(check int) "two entries" 2 (Journal.length j);
      Alcotest.(check (float 1e-9)) "default cost" 1.
        (List.hd (Journal.entries j)).Journal.cost);
  Sys.remove path

(* Property: classification weights always sum to 1 and every class is
   non-empty, for arbitrary journals over the schema. *)
let prop_classification_normalized =
  let stmt_gen =
    QCheck.Gen.(
      oneofl
        [
          "SELECT a FROM t"; "SELECT b FROM t"; "SELECT a, b FROM t";
          "SELECT c FROM u"; "UPDATE t SET a = 1"; "UPDATE u SET c = 2";
          "SELECT a FROM t JOIN u ON a = c";
        ])
  in
  QCheck.Test.make ~count:100 ~name:"classification is a valid workload"
    QCheck.(make Gen.(list_size (int_range 1 50) (pair stmt_gen (float_range 0.1 10.))))
    (fun stmts ->
      let w =
        Classification.classify ~schema ~size_of Classification.By_table
          (journal_of stmts)
      in
      Cdbs_analysis.(Diagnostic.errors (Check_workload.check w)) = [])

let suite =
  [
    Alcotest.test_case "fragment: identity" `Quick test_fragment_identity;
    Alcotest.test_case "fragment: names" `Quick test_fragment_names;
    Alcotest.test_case "fragment: set size" `Quick test_set_size;
    Alcotest.test_case "class: overlap" `Quick test_class_overlap;
    Alcotest.test_case "workload: updates_of" `Quick test_updates_of;
    Alcotest.test_case "workload: normalize" `Quick test_workload_normalize;
    Alcotest.test_case "workload: validate" `Quick test_workload_validate;
    Alcotest.test_case "journal: multiset" `Quick test_journal_multiset;
    Alcotest.test_case "journal: time window" `Quick test_journal_between;
    Alcotest.test_case "journal: file round trip" `Quick
      test_journal_file_roundtrip;
    Alcotest.test_case "journal: tolerant file parsing" `Quick
      test_journal_file_tolerant;
    Alcotest.test_case "classify: by table" `Quick test_classify_by_table;
    Alcotest.test_case "classify: by column" `Quick test_classify_by_column;
    Alcotest.test_case "classify: single class" `Quick test_classify_single;
    Alcotest.test_case "classify: by predicate" `Quick
      test_classify_by_predicate;
    Alcotest.test_case "classify: skips unparsable" `Quick
      test_classify_skips_garbage;
    Alcotest.test_case "classify: default sizes" `Quick test_default_sizes;
    QCheck_alcotest.to_alcotest prop_classification_normalized;
  ]
