(* Static plan verifier: diagnostics, allocation/workload/migration checks.

   Two layers: properties proving the algorithms' outputs are
   diagnostic-clean on random instances, and unit tests proving that
   deliberately corrupted artifacts trigger the expected coded
   diagnostics. *)

open Cdbs_core
module Diagnostic = Cdbs_analysis.Diagnostic
module Check_allocation = Cdbs_analysis.Check_allocation
module Check_workload = Cdbs_analysis.Check_workload
module Check_migration = Cdbs_analysis.Check_migration
module Planner = Cdbs_migration.Planner
module Schedule = Cdbs_migration.Schedule
module Delta = Cdbs_migration.Delta

let codes ds = List.map (fun d -> d.Diagnostic.code) ds
let error_codes ds = codes (Diagnostic.errors ds)

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

let has code ds =
  if not (List.mem code (codes ds)) then
    Alcotest.failf "expected diagnostic %s, got: %s" code
      (String.concat ", " (codes ds))

let no_errors name ds =
  if Diagnostic.errors ds <> [] then
    Alcotest.failf "%s: unexpected errors: %s" name
      (String.concat ", " (error_codes ds))

(* ------------------------------------------------------------------ *)
(* Properties: algorithm outputs are diagnostic-clean                  *)
(* ------------------------------------------------------------------ *)

let small_params =
  { Memetic.default_params with Memetic.population = 4; iterations = 5 }

let prop_greedy_clean =
  QCheck.Test.make ~name:"greedy allocations carry no error diagnostics"
    ~count:100 Gen.scenario_arbitrary (fun (w, bs) ->
      not ((Diagnostic.errors (Check_allocation.check (Greedy.allocate w bs)) <> [])))

let prop_memetic_clean =
  QCheck.Test.make ~name:"memetic allocations carry no error diagnostics"
    ~count:100 Gen.scenario_arbitrary (fun (w, bs) ->
      let rng = Cdbs_util.Rng.create 7 in
      let alloc = Memetic.allocate ~params:small_params ~rng w bs in
      not ((Diagnostic.errors (Check_allocation.check alloc) <> [])))

let prop_ksafety_clean =
  QCheck.Test.make
    ~name:"k-safe allocations pass the k-safety checks (k=1)" ~count:100
    Gen.scenario_arbitrary (fun (w, bs) ->
      QCheck.assume (List.length bs >= 2);
      let alloc = Ksafety.allocate ~k:1 w bs in
      not ((Diagnostic.errors (Check_allocation.check ~k:1 alloc) <> [])))

let prop_migration_clean =
  QCheck.Test.make
    ~name:"planner plans and schedules carry no error diagnostics" ~count:100
    Gen.scenario_arbitrary (fun (w, bs) ->
      let old_alloc = Greedy.allocate w bs in
      let rng = Cdbs_util.Rng.create 13 in
      let target = Memetic.improve ~params:small_params ~rng old_alloc in
      let old_fragments =
        List.init (Allocation.num_backends old_alloc)
          (Allocation.fragments_of old_alloc)
      in
      let plan = Planner.make ~old_fragments target in
      let plan_ds = Check_migration.check_plan ~workload:w plan in
      let sched_ds =
        Check_migration.check_schedule (Schedule.make ~bandwidth:2. plan)
      in
      (not (Diagnostic.errors plan_ds <> []))
      && not (Diagnostic.errors sched_ds <> []))

(* ------------------------------------------------------------------ *)
(* Unit: corrupted allocations                                         *)
(* ------------------------------------------------------------------ *)

let fr ?(size = 1.) name = Fragment.table name ~size
let fa = fr "a"
let fb = fr "b"
let fc = fr "c"

let paper_workload () =
  Workload.make
    ~reads:
      [
        Query_class.read "C1" [ fa ] ~weight:0.30;
        Query_class.read "C2" [ fb ] ~weight:0.25;
        Query_class.read "C3" [ fc ] ~weight:0.20;
        Query_class.read "C4" [ fa; fb ] ~weight:0.15;
      ]
    ~updates:[ Query_class.update "U1" [ fa ] ~weight:0.10 ]

let class_of alloc id =
  let w = Allocation.workload alloc in
  List.find
    (fun (c : Query_class.t) -> c.Query_class.id = id)
    (w.Workload.reads @ w.Workload.updates)

let fresh_alloc () = Greedy.allocate (paper_workload ()) (Backend.homogeneous 3)

let backend_without alloc c =
  let n = Allocation.num_backends alloc in
  let rec go b =
    if b >= n then Alcotest.fail "no backend lacks the class's data"
    else if not (Allocation.holds alloc b c) then b
    else go (b + 1)
  in
  go 0

let backend_serving alloc c =
  let n = Allocation.num_backends alloc in
  let rec go b =
    if b >= n then Alcotest.fail "class served nowhere"
    else if Allocation.get_assign alloc b c > 1e-9 then b
    else go (b + 1)
  in
  go 0

let test_clean_allocation_is_clean () =
  no_errors "greedy on the paper example"
    (Check_allocation.check (fresh_alloc ()))

let test_locality_violation () =
  let alloc = fresh_alloc () in
  let c = class_of alloc "C1" in
  Allocation.set_assign alloc (backend_without alloc c) c 0.05;
  let ds = Check_allocation.check alloc in
  has "ALC002" ds;
  has "ALC003" ds

let test_read_sum_violation () =
  let alloc = fresh_alloc () in
  let c = class_of alloc "C2" in
  let b = backend_serving alloc c in
  Allocation.set_assign alloc b c (Allocation.get_assign alloc b c /. 2.);
  has "ALC003" (Check_allocation.check alloc)

let test_unpinned_update () =
  let alloc = fresh_alloc () in
  let u = class_of alloc "U1" in
  let b = backend_serving alloc u in
  Allocation.set_assign alloc b u (u.Query_class.weight /. 2.);
  let ds = Check_allocation.check alloc in
  has "ALC004" ds

let test_negative_assignment () =
  let alloc = fresh_alloc () in
  let c = class_of alloc "C1" in
  Allocation.set_assign alloc (backend_serving alloc c) c (-0.1);
  has "ALC001" (Check_allocation.check alloc)

let test_under_replication () =
  (* Greedy ignores k-safety: on the paper example each class ends up on a
     single backend, so every class is under-replicated for k=1. *)
  let ds = Check_allocation.check ~k:1 (fresh_alloc ()) in
  has "ALC009" ds

let test_ksafe_passes_k_check () =
  let alloc = Ksafety.allocate ~k:1 (paper_workload ()) (Backend.homogeneous 3) in
  no_errors "k-safe allocation under ~k:1" (Check_allocation.check ~k:1 alloc)

let test_check_exn_raises () =
  let alloc = fresh_alloc () in
  let c = class_of alloc "C1" in
  Allocation.set_assign alloc (backend_without alloc c) c 0.05;
  match Check_allocation.check_exn ~context:"test" alloc with
  | () -> Alcotest.fail "expected Invariants.Violation"
  | exception Invariants.Violation msg ->
      Alcotest.(check bool) "message names the code" true
        (contains_sub msg "ALC002")

(* The checker sees everything an allocation's state holds: storage no
   class references, and negative shares. *)
let test_check_unreferenced_fragment () =
  let orphan = fr "orphan" ~size:3. in
  let alloc = Gen.plant (fresh_alloc ()) 0 (Fragment.Set.singleton orphan) in
  Alcotest.(check bool) "held" true
    (Fragment.Set.mem orphan (Allocation.fragments_of alloc 0));
  Alcotest.(check bool) "ALC011 names it" true
    (List.exists
       (fun (d : Diagnostic.t) ->
         d.code = "ALC011"
         && List.assoc_opt "fragment" d.data = Some (Diagnostic.Str "orphan"))
       (Check_allocation.check alloc))

let test_check_negative_share () =
  let alloc = fresh_alloc () in
  let c = class_of alloc "C1" in
  Allocation.set_assign alloc (backend_serving alloc c) c (-0.1);
  has "ALC001" (Check_allocation.check alloc)

(* A topology that does not cover the allocation's backends, too small or
   too large, is reported rather than indexed. *)
let test_topology_size_mismatch () =
  let t =
    Allocation.state
      (Ksafety.allocate ~k:1
         (Cdbs_workloads.Trace.workload_at ~hour:14.)
         (Backend.homogeneous 4))
  in
  List.iter
    (fun size ->
      has "ALC014"
        (Check_allocation.check_dense ~k:1
           ~topology:(Topology.uniform ~zones:2 size) t))
    [ 2; 6 ]

(* With fewer live backends than k+1, no placement is k-safe. *)
let test_too_few_backends () =
  let alloc =
    Ksafety.allocate ~k:1 (paper_workload ()) (Backend.homogeneous 2)
  in
  has "ALC009" (Check_allocation.check_dense ~k:2 (Allocation.state alloc))

(* ------------------------------------------------------------------ *)
(* Unit: workload lints                                                *)
(* ------------------------------------------------------------------ *)

let test_workload_clean () =
  no_errors "paper example workload" (Check_workload.check (paper_workload ()))

let test_duplicate_id () =
  let w =
    Workload.make
      ~reads:
        [
          Query_class.read "Q1" [ fa ] ~weight:0.5;
          Query_class.read "Q1" [ fb ] ~weight:0.5;
        ]
      ~updates:[]
  in
  has "WKL001" (Check_workload.check w)

let test_zero_weight_and_bad_sum () =
  let w =
    Workload.make
      ~reads:
        [
          Query_class.read "Q1" [ fa ] ~weight:0.5;
          Query_class.read "Q2" [ fb ] ~weight:0.;
        ]
      ~updates:[]
  in
  let ds = Check_workload.check w in
  has "WKL003" ds;
  has "WKL004" ds

let test_empty_fragments () =
  let w =
    Workload.make ~reads:[ Query_class.read "Q1" [] ~weight:1. ] ~updates:[]
  in
  has "WKL005" (Check_workload.check w)

let test_undefined_table () =
  let w =
    Workload.make
      ~reads:[ Query_class.read "Q1" [ fr "phantom" ] ~weight:1. ]
      ~updates:[]
  in
  has "WKL007" (Check_workload.check ~schema:[ ("a", [ "x" ]) ] w)

let test_range_overlap_and_gap () =
  let r lo hi =
    Fragment.range "t" "ts" ~lo ~hi ~size:1.
  in
  let overlapping =
    Workload.make
      ~reads:
        [
          Query_class.read "Q1" [ r 0. 10. ] ~weight:0.5;
          Query_class.read "Q2" [ r 5. 20. ] ~weight:0.5;
        ]
      ~updates:[]
  in
  has "WKL010" (Check_workload.check overlapping);
  let gapped =
    Workload.make
      ~reads:
        [
          Query_class.read "Q1" [ r 0. 10. ] ~weight:0.5;
          Query_class.read "Q2" [ r 15. 20. ] ~weight:0.5;
        ]
      ~updates:[]
  in
  has "WKL011" (Check_workload.check gapped)

(* ------------------------------------------------------------------ *)
(* Unit: corrupted migration plans, schedules, delta journals          *)
(* ------------------------------------------------------------------ *)

let migration_fixture () =
  let w = paper_workload () in
  let old_alloc = Greedy.allocate w (Backend.homogeneous 3) in
  let rng = Cdbs_util.Rng.create 3 in
  let target = Memetic.improve ~params:small_params ~rng old_alloc in
  let old_fragments = List.init 3 (Allocation.fragments_of old_alloc) in
  (w, Planner.make ~old_fragments target)

(* A fixture guaranteed to contain a move: node 1 must receive b. *)
let moving_fixture () =
  let w = paper_workload () in
  let target = Allocation.create w (Backend.homogeneous 2) in
  Allocation.add_fragments target 0 (Fragment.Set.of_list [ fa; fb; fc ]);
  Allocation.add_fragments target 1 (Fragment.Set.of_list [ fa; fb ]);
  List.iter
    (fun id ->
      let c = class_of target id in
      Allocation.set_assign target 0 c c.Query_class.weight)
    [ "C1"; "C2"; "C3"; "C4" ];
  let u = class_of target "U1" in
  Allocation.set_assign target 0 u u.Query_class.weight;
  Allocation.set_assign target 1 u u.Query_class.weight;
  let old_fragments =
    [ Fragment.Set.of_list [ fa; fb; fc ]; Fragment.Set.of_list [ fa ] ]
  in
  (w, Planner.make ~old_fragments target)

let test_plan_clean () =
  let w, plan = migration_fixture () in
  no_errors "planner output" (Check_migration.check_plan ~workload:w plan)

let test_drop_at_copy_destination () =
  let w, plan = moving_fixture () in
  let m = List.hd plan.Planner.moves in
  let corrupted =
    {
      plan with
      Planner.drops =
        { Planner.victim = m.Planner.fragment; at_backend = m.Planner.dest }
        :: plan.Planner.drops;
    }
  in
  let ds = Check_migration.check_plan ~workload:w corrupted in
  has "MIG005" ds;
  has "MIG006" ds

let test_move_index_out_of_range () =
  let w, plan = moving_fixture () in
  let m = List.hd plan.Planner.moves in
  let corrupted =
    { plan with Planner.moves = [ { m with Planner.dest = 9 } ] }
  in
  has "MIG001" (Check_migration.check_plan ~workload:w corrupted)

let test_source_lacks_fragment () =
  let w, plan = moving_fixture () in
  let m = List.hd plan.Planner.moves in
  (* Node 1 starts with only {a}; shipping b out of it is impossible. *)
  let corrupted =
    { plan with Planner.moves = [ { m with Planner.source = Some 1 } ] }
  in
  has "MIG002" (Check_migration.check_plan ~workload:w corrupted)

let test_copy_mb_drift () =
  let w, plan = moving_fixture () in
  let corrupted = { plan with Planner.copy_mb = plan.Planner.copy_mb +. 5. } in
  has "MIG007" (Check_migration.check_plan ~workload:w corrupted)

let test_lost_last_replica () =
  (* Dropping c from node 0 (its only holder, target still serves C3 on
     it) sinks class C3 to zero replicas. *)
  let w, plan = moving_fixture () in
  let corrupted =
    {
      plan with
      Planner.drops =
        { Planner.victim = fc; at_backend = 0 } :: plan.Planner.drops;
    }
  in
  let ds = Check_migration.check_plan ~workload:w corrupted in
  has "MIG006" ds;
  has "MIG009" ds;
  (* One code per finding: the class is reported as MIG009 alone. *)
  if List.mem "MIG008" (codes ds) then Alcotest.fail "MIG008 is reported"

let test_schedule_clean () =
  let _, plan = moving_fixture () in
  no_errors "schedule" (Check_migration.check_schedule (Schedule.make ~bandwidth:2. plan))

let test_schedule_throttle_violation () =
  let _, plan = moving_fixture () in
  let sched = Schedule.make ~bandwidth:2. plan in
  let faster =
    List.map
      (fun (tm : Schedule.timed_move) ->
        { tm with Schedule.finish = tm.Schedule.start +. 1e-3 })
      sched.Schedule.moves
  in
  has "SCH002"
    (Check_migration.check_schedule { sched with Schedule.moves = faster })

let test_schedule_early_drop_barrier () =
  let _, plan = moving_fixture () in
  let sched = Schedule.make ~bandwidth:2. plan in
  has "SCH004"
    (Check_migration.check_schedule
       { sched with Schedule.drops_at = sched.Schedule.copy_done -. 0.5 })

let test_schedule_bad_bandwidth () =
  let _, plan = moving_fixture () in
  let sched = Schedule.make ~bandwidth:2. plan in
  has "SCH001"
    (Check_migration.check_schedule { sched with Schedule.bandwidth = 0. })

let test_schedule_stream_overlap () =
  let _, plan = moving_fixture () in
  let sched = Schedule.make ~bandwidth:2. plan in
  match sched.Schedule.moves with
  | [] -> Alcotest.fail "fixture produced no moves"
  | (tm : Schedule.timed_move) :: _ ->
      (* Run the same copy twice over the same stream at the same time. *)
      let doubled =
        {
          sched with
          Schedule.moves = [ tm; tm ];
          plan =
            {
              plan with
              Planner.moves = [ tm.Schedule.move; tm.Schedule.move ];
            };
        }
      in
      has "SCH003" (Check_migration.check_schedule doubled)

(* ------------------------------------------------------------------ *)
(* Unit: diagnostic rendering                                          *)
(* ------------------------------------------------------------------ *)

let test_json_rendering () =
  let d =
    Diagnostic.error ~code:"ALC002" ~subject:{|class "Q1"|}
      ~data:[ ("backend", Diagnostic.Int 2); ("assign", Diagnostic.Num 0.5) ]
      "broken %s" "badly"
  in
  let json = Diagnostic.to_json d in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "json contains %s" needle)
        true
        (contains_sub json needle))
    [
      {|"severity":"error"|}; {|"code":"ALC002"|}; {|class \"Q1\"|};
      {|"backend":2|}; {|"assign":0.5|};
    ];
  Alcotest.(check string) "empty list" "[]" (Diagnostic.list_to_json [])

let test_sort_and_summary () =
  let e = Diagnostic.error ~code:"ALC001" ~subject:"x" "e" in
  let w = Diagnostic.warning ~code:"WKL003" ~subject:"y" "w" in
  let i = Diagnostic.info ~code:"ALC012" ~subject:"z" "i" in
  (match Diagnostic.sort [ i; w; e ] with
  | [ a; b; c ] ->
      Alcotest.(check string) "errors first" "ALC001" a.Diagnostic.code;
      Alcotest.(check string) "then warnings" "WKL003" b.Diagnostic.code;
      Alcotest.(check string) "then infos" "ALC012" c.Diagnostic.code
  | _ -> Alcotest.fail "sort changed the length");
  Alcotest.(check string) "summary" "1 error, 1 warning, 1 info"
    (Diagnostic.summary [ i; w; e ]);
  Alcotest.(check string) "clean" "clean" (Diagnostic.summary [])

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_greedy_clean; prop_memetic_clean; prop_ksafety_clean;
      prop_migration_clean;
    ]
  @ [
      Alcotest.test_case "clean allocation is clean" `Quick
        test_clean_allocation_is_clean;
      Alcotest.test_case "locality violation -> ALC002" `Quick
        test_locality_violation;
      Alcotest.test_case "read-sum violation -> ALC003" `Quick
        test_read_sum_violation;
      Alcotest.test_case "unpinned update -> ALC004" `Quick
        test_unpinned_update;
      Alcotest.test_case "negative assignment -> ALC001" `Quick
        test_negative_assignment;
      Alcotest.test_case "under-replication -> ALC009" `Quick
        test_under_replication;
      Alcotest.test_case "k-safe allocation passes ~k:1" `Quick
        test_ksafe_passes_k_check;
      Alcotest.test_case "check_exn raises a coded Violation" `Quick
        test_check_exn_raises;
      Alcotest.test_case "workload lints: clean example" `Quick
        test_workload_clean;
      Alcotest.test_case "duplicate id -> WKL001" `Quick test_duplicate_id;
      Alcotest.test_case "zero weight + bad sum -> WKL003/WKL004" `Quick
        test_zero_weight_and_bad_sum;
      Alcotest.test_case "empty fragments -> WKL005" `Quick
        test_empty_fragments;
      Alcotest.test_case "undefined table -> WKL007" `Quick
        test_undefined_table;
      Alcotest.test_case "range overlap/gap -> WKL010/WKL011" `Quick
        test_range_overlap_and_gap;
      Alcotest.test_case "planner output is clean" `Quick test_plan_clean;
      Alcotest.test_case "drop at copy destination -> MIG005/MIG006" `Quick
        test_drop_at_copy_destination;
      Alcotest.test_case "move index out of range -> MIG001" `Quick
        test_move_index_out_of_range;
      Alcotest.test_case "source lacks fragment -> MIG002" `Quick
        test_source_lacks_fragment;
      Alcotest.test_case "copy_mb drift -> MIG007" `Quick test_copy_mb_drift;
      Alcotest.test_case "lost last replica -> MIG008/MIG009" `Quick
        test_lost_last_replica;
      Alcotest.test_case "schedule is clean" `Quick test_schedule_clean;
      Alcotest.test_case "throttle violation -> SCH002" `Quick
        test_schedule_throttle_violation;
      Alcotest.test_case "early drop barrier -> SCH004" `Quick
        test_schedule_early_drop_barrier;
      Alcotest.test_case "bad bandwidth -> SCH001" `Quick
        test_schedule_bad_bandwidth;
      Alcotest.test_case "stream overlap -> SCH003" `Quick
        test_schedule_stream_overlap;
      Alcotest.test_case "JSON rendering" `Quick test_json_rendering;
      Alcotest.test_case "sort and summary" `Quick test_sort_and_summary;
      Alcotest.test_case "check sees unreferenced storage" `Quick
        test_check_unreferenced_fragment;
      Alcotest.test_case "check sees negative shares" `Quick
        test_check_negative_share;
      Alcotest.test_case "topology of the wrong size -> ALC014" `Quick
        test_topology_size_mismatch;
      Alcotest.test_case "fewer live backends than k+1 -> ALC009" `Quick
        test_too_few_backends;
    ]
