(* Workload generator tests: TPC-H, TPC-App, the e-learning trace, and the
   request-spec plumbing. *)

open Cdbs_core
module Tpch = Cdbs_workloads.Tpch
module Tpcapp = Cdbs_workloads.Tpcapp
module Trace = Cdbs_workloads.Trace
module Spec = Cdbs_workloads.Spec
module Request = Cdbs_cluster.Request
module Rng = Cdbs_util.Rng

let valid w =
  Cdbs_analysis.(Diagnostic.errors (Check_workload.check w)) = []

(* ---------------- spec plumbing ---------------- *)

let specs =
  [
    Spec.read "r1" [ ("t", [ "a" ]) ] ~weight:0.6 ~request_mb:2.;
    Spec.read "r2" [ ("t", [ "b" ]) ] ~weight:0.2 ~request_mb:0.5;
    Spec.update "u1" [ ("t", []) ] ~weight:0.2 ~request_mb:0.1;
  ]

let test_class_counts_weighted () =
  let counts = Spec.class_counts ~n:1000 specs in
  (* count_i ∝ weight/mb: r1 0.3, r2 0.4, u1 2.0 -> of 2.7. *)
  let get id = Option.value ~default:0 (List.assoc_opt id counts) in
  Alcotest.(check int) "total" 1000 (get "r1" + get "r2" + get "u1");
  Alcotest.(check int) "r1" 111 (get "r1");
  Alcotest.(check int) "r2" 148 (get "r2");
  Alcotest.(check int) "u1" 741 (get "u1")

let test_requests_carry_cost () =
  let rng = Cdbs_util.Rng.create 1 in
  let reqs = Spec.requests ~rng ~n:100 specs in
  Alcotest.(check int) "100 requests" 100 (List.length reqs);
  List.iter
    (fun (r : Request.t) ->
      match r.Request.cost_mb with
      | Some _ -> ()
      | None -> Alcotest.fail "request without cost override")
    reqs

let test_spec_to_workload_valid () =
  let schema =
    [ Cdbs_storage.Schema.table "t"
        [ ("a", Cdbs_storage.Schema.T_int); ("b", Cdbs_storage.Schema.T_int) ] ]
  in
  let w =
    Spec.to_workload ~schema ~rows:[ ("t", 1000) ] ~granularity:`Column specs
  in
  Alcotest.(check bool) "valid" true (valid w);
  (* The update spec with [] columns covers the whole table. *)
  let u = Option.get (Workload.find w "u1") in
  Alcotest.(check int) "u1 has both columns" 2
    (Fragment.Set.cardinal u.Query_class.fragments)

(* ---------------- TPC-H ---------------- *)

let test_tpch_workload_valid () =
  List.iter
    (fun granularity ->
      let w = Tpch.workload ~granularity ~sf:1. in
      Alcotest.(check bool) "valid" true (valid w);
      Alcotest.(check int) "19 classes" 19 (List.length w.Workload.reads);
      Alcotest.(check int) "read-only" 0 (List.length w.Workload.updates))
    [ `Table; `Column ]

(* Total database size under the schema's column widths. *)
let database_mb schema rows =
  let size_of = Classification.default_sizes ~schema ~rows in
  List.fold_left
    (fun acc tbl ->
      acc +. size_of (Fragment.Table tbl.Cdbs_storage.Schema.tbl_name))
    0. schema

let tpch_mb ~sf = database_mb Tpch.schema (Tpch.row_counts ~sf)
let tpcapp_mb ~eb = database_mb Tpcapp.schema (Tpcapp.row_counts ~eb)

let test_tpch_fact_tables_dominate () =
  (* The paper: lineitem and orders hold over 80% of the data. *)
  let size_of =
    Classification.default_sizes ~schema:Tpch.schema
      ~rows:(Tpch.row_counts ~sf:1.)
  in
  let total = tpch_mb ~sf:1. in
  let facts =
    size_of (Fragment.Table "lineitem") +. size_of (Fragment.Table "orders")
  in
  Alcotest.(check bool) "fact tables > 80%" true (facts /. total > 0.8)

let test_tpch_scaling () =
  Alcotest.(check bool) "SF10 is 10x SF1" true
    (tpch_mb ~sf:10. /. tpch_mb ~sf:1. > 9.5)

let test_tpch_column_footprints_within_schema () =
  let w = Tpch.workload ~granularity:`Column ~sf:1. in
  let cols = Cdbs_storage.Schema.to_assoc Tpch.schema in
  Fragment.Set.iter
    (fun f ->
      match f.Fragment.kind with
      | Fragment.Column { table; column } ->
          let known = Option.value ~default:[] (List.assoc_opt table cols) in
          if not (List.mem column known) then
            Alcotest.failf "query references unknown column %s.%s" table column
      | _ -> Alcotest.fail "expected column fragments")
    (Workload.fragments w)

(* ---------------- TPC-App ---------------- *)

let test_tpcapp_class_counts () =
  let table = Tpcapp.workload ~granularity:`Table ~eb:300 in
  let column = Tpcapp.workload ~granularity:`Column ~eb:300 in
  Alcotest.(check int) "8 table classes" 8
    (List.length (Workload.all_classes table));
  Alcotest.(check int) "10 column classes" 10
    (List.length (Workload.all_classes column))

let test_tpcapp_update_share () =
  let w = Tpcapp.workload ~granularity:`Table ~eb:300 in
  let updates =
    List.fold_left
      (fun acc u -> acc +. u.Query_class.weight)
      0. w.Workload.updates
  in
  Alcotest.(check (float 1e-6)) "25% updates" Tpcapp.update_weight updates

let test_tpcapp_request_mix () =
  (* Roughly 1 read to 7 writes by count; the heavy class is ~1.5% of the
     requests. *)
  let rng = Cdbs_util.Rng.create 4 in
  let reqs = Tpcapp.requests ~rng ~granularity:`Table ~eb:300 ~n:10_000 in
  let updates =
    List.length (List.filter (fun r -> r.Request.is_update) reqs)
  in
  let ratio = float_of_int updates /. float_of_int (10_000 - updates) in
  Alcotest.(check bool) "write-heavy mix" true (ratio > 4. && ratio < 10.);
  let heavy =
    List.length
      (List.filter (fun r -> r.Request.class_id = "R_catalog_search") reqs)
  in
  let share = float_of_int heavy /. 10_000. in
  Alcotest.(check bool) "heavy class ~1.5% of requests" true
    (share > 0.005 && share < 0.03)

let test_tpcapp_database_sizes () =
  Alcotest.(check bool) "EB300 near 280MB" true
    (abs_float (tpcapp_mb ~eb:300 -. 280.) < 80.);
  Alcotest.(check bool) "EB12000 near 8GB" true
    (abs_float (tpcapp_mb ~eb:12_000 -. 8192.) < 1500.)

let test_tpcapp_updated_tables_are_queried_tables () =
  (* Paper: all queried tables are also updated (column classes then span
     whole tables). *)
  let w = Tpcapp.workload ~granularity:`Table ~eb:300 in
  let tables_of cs =
    List.fold_left
      (fun acc c ->
        Fragment.Set.fold
          (fun f acc ->
            match f.Fragment.kind with
            | Fragment.Table t -> t :: acc
            | _ -> acc)
          c.Query_class.fragments acc)
      [] cs
    |> List.sort_uniq String.compare
  in
  let queried = tables_of w.Workload.reads in
  let updated = tables_of w.Workload.updates in
  List.iter
    (fun t ->
      Alcotest.(check bool) (t ^ " updated") true (List.mem t updated))
    queried

(* ---------------- trace ---------------- *)

let test_trace_rate_profile () =
  (* Night trough vs evening peak. *)
  Alcotest.(check bool) "4am low" true (Trace.rate_per_10min ~hour:4. < 400.);
  Alcotest.(check bool) "8pm peak" true
    (Trace.rate_per_10min ~hour:20. > 4000.);
  (* Continuity at the day boundary. *)
  Alcotest.(check (float 1.)) "wraps"
    (Trace.rate_per_10min ~hour:0.)
    (Trace.rate_per_10min ~hour:24.)

let test_trace_mix_night_b () =
  let share h id =
    Option.value ~default:0. (List.assoc_opt id (Trace.class_mix ~hour:h))
  in
  Alcotest.(check bool) "B dominates at 5am" true (share 5. "B" > 0.5);
  Alcotest.(check bool) "B small at noon" true (share 12. "B" < 0.15);
  (* Mix always sums to 1. *)
  for h = 0 to 23 do
    let total =
      List.fold_left
        (fun acc (_, s) -> acc +. s)
        0.
        (Trace.class_mix ~hour:(float_of_int h))
    in
    Alcotest.(check (float 1e-9)) "mix sums to 1" 1. total
  done

let test_trace_journal_classifies () =
  let journal = Trace.journal_for_day ~rng:(Cdbs_util.Rng.create 2) ~scale:1. in
  let size_of =
    Classification.default_sizes ~schema:Trace.schema ~rows:Trace.row_counts
  in
  let w =
    Workload.normalize
      (Classification.classify ~schema:Trace.schema ~size_of
         Classification.By_table journal)
  in
  Alcotest.(check bool) "valid workload" true (valid w);
  Alcotest.(check bool) "several classes" true
    (List.length (Workload.all_classes w) >= 5)

(* [Spec.uniform_requests] against a reference draw: arrivals in shuffled
   order, then [List.stable_sort] of the records by arrival.  A zero
   span ties every arrival, and a tiny one past a large [t0] ties many.
   The generator must end in the same state, since callers go on drawing
   from it. *)
let prop_uniform_requests_order =
  let bits = Int64.bits_of_float in
  let same (a : Request.t) (b : Request.t) =
    a.Request.class_id = b.Request.class_id
    && a.Request.is_update = b.Request.is_update
    && Option.equal (fun x y -> bits x = bits y) a.Request.cost_mb
         b.Request.cost_mb
    && bits a.Request.arrival = bits b.Request.arrival
  in
  QCheck.Test.make ~count:200
    ~name:"spec: uniform_requests = its draw, stably sorted"
    QCheck.(
      pair bool
        (quad int (int_range 0 3000)
           (oneof [ always 0.; float_range (-100.) 86_400. ])
           (oneof [ always 0.; always 1e-12; float_range 0. 3600. ])))
    (fun (small, (seed, n, t0, span)) ->
      let mix = if small then specs else Trace.specs_at ~hour:14. in
      let rng = Rng.create seed and ref_rng = Rng.create seed in
      let got = Spec.uniform_requests ~rng ~n ~t0 ~span mix in
      let want =
        Spec.requests ~rng:ref_rng ~n mix
        |> List.map (fun (r : Request.t) ->
               { r with Request.arrival = t0 +. Rng.float ref_rng span })
        |> List.stable_sort (fun (a : Request.t) b ->
               Float.compare a.Request.arrival b.Request.arrival)
      in
      List.equal same got want
      && bits (Rng.float rng 1.) = bits (Rng.float ref_rng 1.))

let suite =
  [
    Alcotest.test_case "spec: class counts" `Quick test_class_counts_weighted;
    QCheck_alcotest.to_alcotest prop_uniform_requests_order;
    Alcotest.test_case "spec: requests carry cost" `Quick
      test_requests_carry_cost;
    Alcotest.test_case "spec: to_workload" `Quick test_spec_to_workload_valid;
    Alcotest.test_case "tpch: workload valid" `Quick test_tpch_workload_valid;
    Alcotest.test_case "tpch: fact tables dominate" `Quick
      test_tpch_fact_tables_dominate;
    Alcotest.test_case "tpch: scale factor" `Quick test_tpch_scaling;
    Alcotest.test_case "tpch: footprints within schema" `Quick
      test_tpch_column_footprints_within_schema;
    Alcotest.test_case "tpcapp: class counts (8/10)" `Quick
      test_tpcapp_class_counts;
    Alcotest.test_case "tpcapp: 25% update weight" `Quick
      test_tpcapp_update_share;
    Alcotest.test_case "tpcapp: request mix" `Quick test_tpcapp_request_mix;
    Alcotest.test_case "tpcapp: database sizes" `Quick
      test_tpcapp_database_sizes;
    Alcotest.test_case "tpcapp: queried tables updated" `Quick
      test_tpcapp_updated_tables_are_queried_tables;
    Alcotest.test_case "trace: rate profile" `Quick test_trace_rate_profile;
    Alcotest.test_case "trace: class mix" `Quick test_trace_mix_night_b;
    Alcotest.test_case "trace: journal classifies" `Quick
      test_trace_journal_classifies;
  ]
