(* Live migration subsystem: planner, schedule, delta journal, open-mode
   simulation during a rebalance, controller live reallocation. *)

open Cdbs_core
module Planner = Cdbs_migration.Planner
module Schedule = Cdbs_migration.Schedule
module Delta = Cdbs_migration.Delta
module Simulator = Cdbs_cluster.Simulator
module Request = Cdbs_cluster.Request
module Controller = Cdbs_cluster.Controller

let fr ?(size = 1.) name = Fragment.table name ~size
let set = Fragment.Set.of_list
let fa = fr ~size:2. "a"
let fb = fr ~size:3. "b"
let fc = fr ~size:1. "c"

let workload () =
  Workload.make
    ~reads:
      [
        Query_class.read "q1" [ fa ] ~weight:0.4;
        Query_class.read "q2" [ fb ] ~weight:0.3;
      ]
    ~updates:
      [
        Query_class.update "u1" [ fa ] ~weight:0.1;
        Query_class.update "u2" [ fb ] ~weight:0.2;
      ]

(* Target: node0 {a}, node1 {a,b} — a placement the matching can deploy
   for free onto old = [{a,b}; {a}] by crossing the backends. *)
let crossing_target () =
  let alloc = Allocation.create (workload ()) (Backend.homogeneous 2) in
  Allocation.add_fragments alloc 0 (set [ fa ]);
  Allocation.add_fragments alloc 1 (set [ fa; fb ]);
  alloc

let test_planner_moves_and_drops () =
  (* Expand: every node must end with {a,b}; the node missing b receives
     exactly one copy, sourced from the node that has it. *)
  let old_fragments = [ set [ fa; fb ]; set [ fa ] ] in
  let alloc = Allocation.create (workload ()) (Backend.homogeneous 2) in
  Allocation.add_fragments alloc 0 (set [ fa; fb ]);
  Allocation.add_fragments alloc 1 (set [ fa; fb ]);
  let plan = Planner.make ~old_fragments alloc in
  Alcotest.(check int) "one copy" 1 (List.length plan.Planner.moves);
  (match plan.Planner.moves with
  | [ m ] ->
      Alcotest.(check int) "b lands on node 1" 1 m.Planner.dest;
      Alcotest.(check (option int)) "sourced from node 0" (Some 0)
        m.Planner.source;
      Alcotest.(check (float 1e-9)) "ships b" 3. m.Planner.size
  | _ -> Alcotest.fail "expected exactly one move");
  Alcotest.(check int) "no drops" 0 (List.length plan.Planner.drops);
  Alcotest.(check (float 1e-9)) "copy volume" 3. plan.Planner.copy_mb;
  (* A stop-the-world rebuild ships the whole target placement. *)
  Alcotest.(check (float 1e-9)) "full rebuild volume" 10.
    plan.Planner.full_rebuild_mb;
  (* Contract: shedding a surplus replica of b ships nothing. *)
  let old_full = [ set [ fa; fb ]; set [ fa; fb ] ] in
  let plan2 = Planner.make ~old_fragments:old_full (crossing_target ()) in
  Alcotest.(check int) "no copies" 0 (List.length plan2.Planner.moves);
  Alcotest.(check int) "one drop" 1 (List.length plan2.Planner.drops);
  (match plan2.Planner.drops with
  | [ d ] ->
      Alcotest.(check bool) "victim is b" true
        (Fragment.compare d.Planner.victim fb = 0)
  | _ -> Alcotest.fail "expected exactly one drop");
  Alcotest.(check (float 1e-9)) "contract ships nothing" 0.
    plan2.Planner.copy_mb

let test_planner_smallest_first () =
  (* Fresh node receives a, b and c: cutovers must come cheapest-first. *)
  let old_fragments = [ set [ fa; fb; fc ]; Fragment.Set.empty ] in
  let alloc = Allocation.create (workload ()) (Backend.homogeneous 2) in
  let all = set [ fa; fb; fc ] in
  let alloc = Gen.plant (Gen.plant alloc 0 all) 1 all in
  let plan = Planner.make ~old_fragments alloc in
  let sizes = List.map (fun (m : Planner.move) -> m.Planner.size) plan.moves in
  Alcotest.(check (list (float 1e-9))) "ascending sizes" [ 1.; 2.; 3. ] sizes

let test_planner_noop () =
  let old_fragments = [ set [ fa ]; set [ fa; fb ] ] in
  let plan = Planner.make ~old_fragments (crossing_target ()) in
  Alcotest.(check bool) "noop" true (Planner.is_noop plan);
  Alcotest.(check int) "no moves" 0 (List.length plan.Planner.moves);
  Alcotest.(check int) "no drops" 0 (List.length plan.Planner.drops)

let test_planner_ksafety () =
  (* A two-fragment class relocating wholesale: {a,b} lives only on node 0
     and must end up only on node 1.  Expand-then-contract keeps one full
     replica live throughout; a per-fragment drop discipline would strand
     the class between b's arrival and a's. *)
  let w =
    Workload.make
      ~reads:[ Query_class.read "pair" [ fa; fb ] ~weight:1. ]
      ~updates:[]
  in
  let old_fragments = [ set [ fa; fb ]; Fragment.Set.empty ] in
  let alloc = Allocation.create w (Backend.homogeneous 2) in
  Allocation.add_fragments alloc 0 Fragment.Set.empty;
  Allocation.add_fragments alloc 1 (set [ fa; fb ]);
  let plan = Planner.make ~old_fragments alloc in
  (match
     Cdbs_analysis.Diagnostic.errors
       (Cdbs_analysis.Check_migration.check_plan ~workload:w plan)
   with
  | [] -> ()
  | d :: _ -> Alcotest.failf "%a" Cdbs_analysis.Diagnostic.pp d)

let test_schedule_throttle () =
  let old_fragments = [ set [ fa; fb; fc ]; Fragment.Set.empty ] in
  let alloc = Allocation.create (workload ()) (Backend.homogeneous 2) in
  let all = set [ fa; fb; fc ] in
  let alloc = Gen.plant (Gen.plant alloc 0 all) 1 all in
  let plan = Planner.make ~old_fragments alloc in
  let s = Schedule.make ~start:10. ~bandwidth:0.5 plan in
  (* All three copies share the node0 -> node1 stream: strictly serial, so
     the phase lasts (1 + 2 + 3) / 0.5 seconds. *)
  Alcotest.(check (float 1e-9)) "serialized duration" 12. (s.Schedule.drops_at -. s.Schedule.start);
  Alcotest.(check (float 1e-9)) "drops at the barrier" s.Schedule.copy_done
    s.Schedule.drops_at;
  List.iter
    (fun (tm : Schedule.timed_move) ->
      Alcotest.(check (float 1e-9)) "throttled length"
        (tm.Schedule.move.Planner.size /. 0.5)
        (tm.Schedule.finish -. tm.Schedule.start))
    s.Schedule.moves;
  (* No two copies on the shared stream overlap. *)
  let rec disjoint = function
    | (a : Schedule.timed_move) :: (b : Schedule.timed_move) :: rest ->
        Alcotest.(check bool) "serial on shared stream" true
          (a.Schedule.finish <= b.Schedule.start +. 1e-9);
        disjoint (b :: rest)
    | _ -> ()
  in
  disjoint s.Schedule.moves;
  Alcotest.(check bool) "copying during" true
    (Schedule.copying s ~backend:1 ~at:11.);
  Alcotest.(check bool) "idle before start" false
    (Schedule.copying s ~backend:1 ~at:9.);
  Alcotest.(check bool) "idle after barrier" false
    (Schedule.copying s ~backend:1 ~at:23.)

let test_delta_journal () =
  let d : string Delta.t = Delta.create () in
  Delta.open_capture d ~dest:1 ~fragment:fb;
  Alcotest.(check bool) "one open capture" false (Delta.is_empty d);
  Alcotest.(check int) "update recorded once" 1
    (Delta.capture d ~fragment:fb ~item:"u1" ~mb:0.5);
  Alcotest.(check int) "other fragment ignored" 0
    (Delta.capture d ~fragment:fa ~item:"ux" ~mb:0.5);
  Alcotest.(check int) "second update" 1
    (Delta.capture d ~fragment:fb ~item:"u2" ~mb:0.25);
  let items, mb = Delta.drain d ~dest:1 ~fragment:fb in
  Alcotest.(check (list string)) "arrival order" [ "u1"; "u2" ] items;
  Alcotest.(check (float 1e-9)) "drained volume" 0.75 mb;
  Alcotest.(check bool) "capture closed" true (Delta.is_empty d);
  let items2, mb2 = Delta.drain d ~dest:1 ~fragment:fb in
  Alcotest.(check (list string)) "second drain empty" [] items2;
  Alcotest.(check (float 1e-9)) "no volume" 0. mb2

(* The acceptance scenario: an open-mode run while the rebalance executes.
   Old: node0 {a,b}, node1 {a}.  Target crosses b over to node 1 and drops
   it from node 0; node 2 is fresh and receives a.  Updates to b arrive
   while b's snapshot is on the wire, so the delta journal must capture and
   replay them. *)
let migration_run () =
  let w = workload () in
  let old_fragments = [ set [ fa; fb ]; set [ fa ] ] in
  let alloc = Allocation.create w (Backend.homogeneous 3) in
  Allocation.add_fragments alloc 0 (set [ fa ]);
  Allocation.add_fragments alloc 1 (set [ fa; fb ]);
  Allocation.add_fragments alloc 2 (set [ fa ]);
  let plan = Planner.make ~old_fragments alloc in
  let schedule = Schedule.make ~start:20. ~bandwidth:0.2 plan in
  let rng = Cdbs_util.Rng.create 9 in
  let requests =
    List.init 400 (fun i ->
        let arrival = Cdbs_util.Rng.float rng 120. in
        match i mod 4 with
        | 0 -> Request.read ~arrival "q1"
        | 1 -> Request.read ~arrival "q2"
        | 2 -> Request.update ~arrival "u2"
        | _ -> Request.update ~arrival "u1")
  in
  let config = Simulator.homogeneous_config plan.Planner.num_physical in
  (plan, schedule, Simulator.run_open_with_migration config ~target:alloc
                     ~schedule requests)

let test_simulator_acceptance () =
  let plan, schedule, mo = migration_run () in
  Alcotest.(check int) "zero routing errors" 0 mo.Simulator.run.Simulator.errors;
  Alcotest.(check int) "all requests completed" 400
    mo.Simulator.run.Simulator.completed;
  Alcotest.(check bool) "ships no more than a full rebuild" true
    (mo.Simulator.copied_mb <= plan.Planner.full_rebuild_mb +. 1e-9);
  Alcotest.(check (float 1e-9)) "ships exactly the plan" plan.Planner.copy_mb
    mo.Simulator.copied_mb;
  Alcotest.(check bool) "deltas were replayed" true
    (mo.Simulator.replayed_mb > 0.);
  List.iter
    (fun (cls, m) ->
      Alcotest.(check bool) (cls ^ " kept a live replica") true (m >= 1))
    mo.Simulator.min_live_replicas;
  Alcotest.(check bool) "target deployed" true mo.Simulator.target_deployed;
  Alcotest.(check (float 1e-9)) "barrier as scheduled" schedule.Schedule.drops_at
    mo.Simulator.drops_at;
  Alcotest.(check int) "responses recorded" 400
    (List.length mo.Simulator.responses)

let test_simulator_degrades_then_recovers () =
  let _, schedule, mo = migration_run () in
  let phase p =
    List.filter_map
      (fun (arrival, response) ->
        let in_copy =
          arrival >= schedule.Schedule.start
          && arrival < schedule.Schedule.copy_done
        in
        if (p = `Copy) = in_copy then Some response else None)
      mo.Simulator.responses
  in
  let mean xs =
    List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  (* Copy contention slows the touched nodes; the run still completes. *)
  Alcotest.(check bool) "copy phase is slower" true
    (mean (phase `Copy) > mean (phase `Steady))

(* Migration events go before arrivals at the same instant, as faults do.
   Old: node0 {a,b}, node1 {b}.  Target: node0 {a,c}, node1 {b}: c comes
   from the master copy (no node serves q3 before its cutover) and node0
   drops b at the barrier, which falls on the same instant. *)
let test_simulator_same_instant_migration_events () =
  let w =
    Workload.make
      ~reads:
        [
          Query_class.read "q1" [ fa ] ~weight:0.3;
          Query_class.read "q2" [ fb ] ~weight:0.3;
          Query_class.read "q3" [ fc ] ~weight:0.2;
        ]
      ~updates:[ Query_class.update "u1" [ fa ] ~weight:0.2 ]
  in
  let alloc = Allocation.create w (Backend.homogeneous 2) in
  Allocation.add_fragments alloc 0 (set [ fa; fc ]);
  Allocation.add_fragments alloc 1 (set [ fb ]);
  let plan = Planner.make ~old_fragments:[ set [ fa; fb ]; set [ fb ] ] alloc in
  let schedule = Schedule.make ~start:10. ~bandwidth:0.5 plan in
  let cutover =
    match schedule.Schedule.moves with
    | [ tm ] -> tm.Schedule.finish
    | _ -> Alcotest.fail "expected exactly one copy"
  in
  (match plan.Planner.drops with
  | [ d ] -> Alcotest.(check int) "node0 drops b" 0 d.Planner.at_backend
  | _ -> Alcotest.fail "expected exactly one drop");
  Alcotest.(check (float 1e-9)) "barrier at the cutover" cutover
    schedule.Schedule.drops_at;
  let run r =
    (Simulator.run_open_with_migration
       (Simulator.homogeneous_config plan.Planner.num_physical)
       ~target:alloc ~schedule [ r ])
      .Simulator.run
  in
  let at_cutover = run (Request.read ~arrival:cutover "q3") in
  Alcotest.(check int) "served at the cutover instant" 1
    at_cutover.Simulator.completed;
  Alcotest.(check int) "no error at the cutover instant" 0
    at_cutover.Simulator.errors;
  (* Before the cutover the read is unroutable: an error, never retried. *)
  let early = run (Request.read ~arrival:(cutover -. 0.5) "q3") in
  Alcotest.(check int) "unroutable before the cutover" 1
    early.Simulator.errors;
  Alcotest.(check int) "not completed later" 0 early.Simulator.completed;
  let at_barrier = run (Request.read ~arrival:schedule.Schedule.drops_at "q2") in
  Alcotest.(check int) "served at the barrier" 1 at_barrier.Simulator.completed;
  Alcotest.(check (float 0.)) "routed away from the dropped copy" 0.
    at_barrier.Simulator.busy.(0);
  (* Before the barrier both nodes hold b and the tie goes to node0. *)
  let before = run (Request.read ~arrival:(cutover -. 0.5) "q2") in
  Alcotest.(check bool) "node0 serves b before the barrier" true
    (before.Simulator.busy.(0) > 0.)

(* ---------------- controller ---------------- *)

let schema : Cdbs_storage.Schema.t =
  [
    Cdbs_storage.Schema.table "orders" ~primary_key:[ "id" ]
      [ ("id", Cdbs_storage.Schema.T_int); ("total", Cdbs_storage.Schema.T_int) ];
    Cdbs_storage.Schema.table "items" ~primary_key:[ "id" ]
      [ ("id", Cdbs_storage.Schema.T_int); ("qty", Cdbs_storage.Schema.T_int) ];
  ]

let test_controller_live_end_to_end () =
  let c =
    Controller.create ~schema
      ~rows:[ ("orders", 2000); ("items", 2000) ]
      ~backends:3 ~seed:7
  in
  (* Orders-heavy history; first rebalance shrinks items to one replica. *)
  for _ = 1 to 40 do
    ignore (Controller.submit c "SELECT id FROM orders WHERE total > 50")
  done;
  for _ = 1 to 4 do
    ignore (Controller.submit c "SELECT id FROM items WHERE qty > 5")
  done;
  (match Controller.reallocate_live c () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "first migration finished" false
    (Controller.is_migrating c);
  (* The mix flips: items becomes hot, the next rebalance must copy it
     back while serving. *)
  for _ = 1 to 400 do
    ignore (Controller.submit c "SELECT id FROM items WHERE qty > 5")
  done;
  let plan =
    match Controller.begin_reallocate_live c ~bandwidth_mb_per_request:0.0005 ()
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "plan copies items back" true
    (List.length plan.Planner.moves >= 1);
  Alcotest.(check bool) "offline path refuses while live" true
    (Result.is_error (Controller.reallocate c ()));
  (* Serve during the copy: updates to the in-flight table are captured. *)
  let captured = ref 0 in
  let steps = ref 0 in
  while Controller.is_migrating c && !steps < 2000 do
    incr steps;
    let sql =
      if !steps mod 5 = 0 then
        Fmt.str "UPDATE items SET qty = %d WHERE id = %d" (100 + !steps)
          (!steps mod 50)
      else "SELECT id FROM items WHERE qty > 5"
    in
    (match Controller.submit c sql with
    | Ok _ -> ()
    | Error e -> Alcotest.fail ("request failed mid-migration: " ^ e));
    match Controller.migration_progress c with
    | Some p -> captured := max !captured p.Controller.delta_pending
    | None -> ()
  done;
  Controller.drive_migration c ();
  Alcotest.(check bool) "migration finished" false (Controller.is_migrating c);
  Alcotest.(check bool) "updates were captured in flight" true (!captured > 0);
  (* The last captured update must be visible on every replica now serving
     items: route the probe repeatedly so least-pending spreads it. *)
  let last = 100 + (!steps / 5 * 5) in
  for _ = 1 to 10 do
    match
      Controller.submit c (Fmt.str "SELECT id FROM items WHERE qty = %d" last)
    with
    | Ok (Cdbs_storage.Executor.Rows { rows; _ }) ->
        Alcotest.(check int) "replayed update visible" 1 (List.length rows)
    | Ok _ -> Alcotest.fail "expected rows"
    | Error e -> Alcotest.fail e
  done

let test_controller_live_noop () =
  let c =
    Controller.create ~schema ~rows:[ ("orders", 100); ("items", 100) ]
      ~backends:2 ~seed:1
  in
  for _ = 1 to 10 do
    ignore (Controller.submit c "SELECT id FROM orders WHERE total > 50");
    ignore (Controller.submit c "SELECT id FROM items WHERE qty > 5")
  done;
  (match Controller.reallocate_live c () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* Same history again: the second plan is a noop and completes inline. *)
  match Controller.reallocate_live c () with
  | Ok mb ->
      Alcotest.(check (float 1e-9)) "nothing shipped" 0. mb;
      Alcotest.(check bool) "not migrating" false (Controller.is_migrating c)
  | Error e -> Alcotest.fail e

(* ---------------- experiment ---------------- *)

let test_fig_migration () =
  let r =
    Cdbs_experiments.Fig_migration.scenario ~nodes:3 ~bandwidth:8.
      ~rate_per_s:5. ~duration:240. ~migrate_at:60. ()
  in
  Alcotest.(check int) "timeline buckets" 20
    (List.length r.Cdbs_experiments.Fig_migration.timeline);
  Alcotest.(check int) "zero errors" 0 r.Cdbs_experiments.Fig_migration.errors;
  Alcotest.(check bool) "target deployed" true
    r.Cdbs_experiments.Fig_migration.target_deployed;
  Alcotest.(check bool) "live ships no more than a rebuild" true
    (r.Cdbs_experiments.Fig_migration.copied_mb
    <= r.Cdbs_experiments.Fig_migration.full_rebuild_mb +. 1e-9);
  Alcotest.(check bool) "classes stayed served" true
    (r.Cdbs_experiments.Fig_migration.min_live_replicas >= 1)

let suite =
  [
    Alcotest.test_case "planner: moves and drops" `Quick
      test_planner_moves_and_drops;
    Alcotest.test_case "planner: smallest transfer first" `Quick
      test_planner_smallest_first;
    Alcotest.test_case "planner: noop" `Quick test_planner_noop;
    Alcotest.test_case "planner: k-safety across the move" `Quick
      test_planner_ksafety;
    Alcotest.test_case "schedule: throttle and barrier" `Quick
      test_schedule_throttle;
    Alcotest.test_case "delta journal" `Quick test_delta_journal;
    Alcotest.test_case "simulator: live rebalance acceptance" `Quick
      test_simulator_acceptance;
    Alcotest.test_case "simulator: degrades during copy" `Quick
      test_simulator_degrades_then_recovers;
    Alcotest.test_case "controller: live reallocation end to end" `Quick
      test_controller_live_end_to_end;
    Alcotest.test_case "controller: noop live reallocation" `Quick
      test_controller_live_noop;
    Alcotest.test_case "experiment: migration timeline" `Quick
      test_fig_migration;
    Alcotest.test_case "simulator: same-instant migration events" `Quick
      test_simulator_same_instant_migration_events;
  ]
