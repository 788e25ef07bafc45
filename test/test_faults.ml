(* Fault injection & recovery: fault timelines, retry policy, seeded chaos,
   the event-clock simulator, the crash/rejoin scheduler states, the
   controller lifecycle, and k-safety self-repair. *)

open Cdbs_core
module Fault = Cdbs_faults.Fault
module Retry = Cdbs_faults.Retry
module Chaos = Cdbs_faults.Chaos
module Scheduler = Cdbs_cluster.Scheduler
module Simulator = Cdbs_cluster.Simulator
module Request = Cdbs_cluster.Request
module Controller = Cdbs_cluster.Controller
module Rng = Cdbs_util.Rng

let fr ?(size = 1.) name = Fragment.table name ~size

(* ---------------- fault timelines ---------------- *)

let test_fault_sort_and_validate () =
  let sched =
    [ Fault.recover ~at:9. 0; Fault.crash ~at:3. 0; Fault.crash ~at:3. 1 ]
  in
  let sorted = Fault.sort sched in
  Alcotest.(check (list (float 1e-9)))
    "sorted by time, stable at ties" [ 3.; 3.; 9. ]
    (List.map (fun t -> t.Fault.at) sorted);
  (match List.map (fun t -> t.Fault.event) sorted with
  | [ Fault.Crash 0; Fault.Crash 1; Fault.Recover 0 ] -> ()
  | _ -> Alcotest.fail "tie order not stable");
  Alcotest.(check bool) "valid alternation" true
    (Fault.validate ~num_backends:2 sorted = Ok ());
  Alcotest.(check bool) "double crash rejected" false
    (Fault.validate ~num_backends:2
       [ Fault.crash ~at:1. 0; Fault.crash ~at:2. 0 ]
    = Ok ());
  Alcotest.(check bool) "recover of an up backend rejected" false
    (Fault.validate ~num_backends:2 [ Fault.recover ~at:1. 0 ] = Ok ());
  Alcotest.(check bool) "out-of-range backend rejected" false
    (Fault.validate ~num_backends:2 [ Fault.crash ~at:1. 5 ] = Ok ());
  match Fault.slowdown ~at:1. ~backend:0 ~factor:0.5 ~duration:1. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "slowdown factor < 1 should be rejected"

let test_retry_policy () =
  let p = Retry.default in
  Alcotest.(check (float 1e-9)) "first backoff" p.Retry.backoff_base
    (Retry.backoff p ~attempt:1);
  Alcotest.(check (float 1e-9))
    "third backoff"
    (p.Retry.backoff_base *. (p.Retry.backoff_multiplier ** 2.))
    (Retry.backoff p ~attempt:3);
  Alcotest.(check bool) "within budget" false (Retry.gives_up p ~attempt:3);
  Alcotest.(check bool) "budget spent" true (Retry.gives_up p ~attempt:4);
  Alcotest.(check bool) "no_retry gives up at once" true
    (Retry.gives_up Retry.no_retry ~attempt:1);
  Alcotest.(check bool) "deadline" true
    (Retry.timed_out p ~arrival:0. ~now:(p.Retry.timeout +. 1.));
  match Retry.make ~max_retries:(-1) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative max_retries should be rejected"

let test_chaos_deterministic () =
  let gen seed =
    Chaos.generate ~rng:(Rng.create seed) ~num_backends:4
      { Chaos.default with Chaos.max_concurrent_down = Some 1 }
  in
  Alcotest.(check bool) "same seed, same schedule" true (gen 7 = gen 7);
  Alcotest.(check bool) "different seeds differ" true (gen 7 <> gen 8);
  let sched = gen 7 in
  Alcotest.(check bool) "generated schedule validates" true
    (Fault.validate ~num_backends:4 sched = Ok ());
  (* The concurrency cap holds along the whole timeline. *)
  let down = Hashtbl.create 4 and max_down = ref 0 in
  List.iter
    (fun t ->
      (match t.Fault.event with
      | Fault.Crash b -> Hashtbl.replace down b ()
      | Fault.Recover b -> Hashtbl.remove down b
      | Fault.Slowdown _ | Fault.Partition _ | Fault.ZoneOutage _
      | Fault.Workload_shift _ -> ());
      if Hashtbl.length down > !max_down then
        max_down := Hashtbl.length down)
    sched;
  Alcotest.(check bool) "cap respected" true (!max_down <= 1)

(* ---------------- event-clock simulator ---------------- *)

(* One class on one backend; 10 reads at t=0 of 990 MB each.  Under the
   default cost model each takes exactly 0.01 + 0.99 = 1 s, so the queue
   drains at t=10.  A crash at t=5.5 — after the last arrival — must
   cancel the read in flight and the 4 still queued; with no surviving
   replica all 5 abort after exhausting their 3 retries.  The historical
   polling implementation only applied failures at arrival instants, so
   this crash was silently ignored (0 errors, 10 completed). *)
let orphan_scenario () =
  let w =
    Workload.make ~reads:[ Query_class.read "q" [ fr "a" ] ~weight:1. ]
      ~updates:[]
  in
  let alloc = Greedy.allocate w (Backend.homogeneous 1) in
  let requests =
    List.init 10 (fun _ -> Request.read ~arrival:0. ~cost_mb:990. "q")
  in
  (alloc, requests)

let test_late_failure_cancels_queued_work () =
  let alloc, requests = orphan_scenario () in
  let outcome =
    (Simulator.run_open_with_faults
       (Simulator.homogeneous_config 1)
       alloc requests
       ~faults:[ Fault.crash ~at:5.5 0 ])
      .Simulator.run
  in
  Alcotest.(check int) "5 queued/in-flight requests abort" 5
    outcome.Simulator.errors;
  Alcotest.(check int) "5 completed before the crash" 5
    outcome.Simulator.completed

let test_fault_outcome_accounting () =
  let alloc, requests = orphan_scenario () in
  let fo =
    Simulator.run_open_with_faults
      (Simulator.homogeneous_config 1)
      alloc requests
      ~faults:[ Fault.crash ~at:5.5 0 ]
  in
  Alcotest.(check int) "offered" 10 fo.Simulator.offered;
  Alcotest.(check int) "aborted" 5 fo.Simulator.aborted;
  Alcotest.(check int) "completed + aborted = offered" 10
    (fo.Simulator.run.Simulator.completed + fo.Simulator.aborted);
  Alcotest.(check (float 1e-9)) "availability" 0.5 fo.Simulator.availability;
  Alcotest.(check int) "each orphan retried" 5 fo.Simulator.retried_requests;
  Alcotest.(check int) "3 attempts per orphan" 15 fo.Simulator.retries;
  Alcotest.(check bool) "cancelled work recorded" true
    (fo.Simulator.cancelled_work > 4.4);
  Alcotest.(check int) "one backend down the whole tail" 1
    fo.Simulator.max_concurrent_down

let test_failover_retries_on_survivor () =
  let w =
    Workload.make ~reads:[ Query_class.read "q" [ fr "a" ] ~weight:1. ]
      ~updates:[]
  in
  let alloc = Ksafety.allocate ~k:1 w (Backend.homogeneous 2) in
  let requests =
    List.init 10 (fun i ->
        Request.read ~arrival:(0.1 *. float_of_int i) ~cost_mb:990. "q")
  in
  let fo =
    Simulator.run_open_with_faults
      (Simulator.homogeneous_config 2)
      alloc requests
      ~faults:[ Fault.crash ~at:2.5 0 ]
  in
  Alcotest.(check int) "no aborts with a survivor" 0 fo.Simulator.aborted;
  Alcotest.(check (float 1e-9)) "fully available" 1. fo.Simulator.availability;
  Alcotest.(check bool) "the cancelled reads were retried" true
    (fo.Simulator.retried_requests > 0)

let test_recover_and_catch_up () =
  let w =
    Workload.make
      ~reads:[ Query_class.read "q" [ fr "a" ] ~weight:0.8 ]
      ~updates:[ Query_class.update "u" [ fr "a" ] ~weight:0.2 ]
  in
  let alloc = Ksafety.allocate ~k:1 w (Backend.homogeneous 2) in
  let requests =
    List.init 40 (fun i ->
        let arrival = 0.25 *. float_of_int i in
        if i mod 4 = 0 then Request.update ~arrival ~cost_mb:2. "u"
        else Request.read ~arrival ~cost_mb:2. "q")
  in
  let fo =
    Simulator.run_open_with_faults
      (Simulator.homogeneous_config 2)
      alloc requests
      ~faults:[ Fault.crash ~at:2.0 0; Fault.recover ~at:6.0 0 ]
  in
  Alcotest.(check int) "everything served" 0 fo.Simulator.aborted;
  (match fo.Simulator.recoveries with
  | [ r ] ->
      Alcotest.(check int) "the crashed backend" 0 r.Simulator.rec_backend;
      Alcotest.(check (float 1e-9)) "crash time" 2.0 r.Simulator.crashed_at;
      Alcotest.(check (float 1e-9)) "recover time" 6.0 r.Simulator.recovered_at;
      Alcotest.(check bool) "missed updates were replayed" true
        (r.Simulator.replayed_mb > 0.);
      Alcotest.(check bool) "caught up after rejoining" true
        ((not (Float.is_nan r.Simulator.caught_up_at))
        && r.Simulator.caught_up_at >= r.Simulator.recovered_at)
  | rs -> Alcotest.failf "expected 1 recovery, got %d" (List.length rs));
  Alcotest.(check bool) "catch-up volume accounted" true
    (fo.Simulator.catch_up_mb > 0.);
  Alcotest.(check bool) "downtime recorded" true
    (fo.Simulator.downtime.(0) >= 4. -. 1e-9)

let test_slowdown_inflates_service () =
  let w =
    Workload.make ~reads:[ Query_class.read "q" [ fr "a" ] ~weight:1. ]
      ~updates:[]
  in
  let alloc = Greedy.allocate w (Backend.homogeneous 1) in
  let requests =
    List.init 20 (fun i ->
        Request.read ~arrival:(float_of_int i) ~cost_mb:100. "q")
  in
  let run faults =
    Simulator.run_open_with_faults
      (Simulator.homogeneous_config 1)
      alloc requests ~faults
  in
  let base = run [] and slow =
    run [ Fault.slowdown ~at:0. ~backend:0 ~factor:4. ~duration:30. ]
  in
  Alcotest.(check int) "no aborts either way" 0 slow.Simulator.aborted;
  Alcotest.(check bool) "slowdown raises mean response" true
    (slow.Simulator.run.Simulator.avg_response
    > base.Simulator.run.Simulator.avg_response +. 1e-9)

(* Same-instant ordering: at equal times the clock applies faults before
   arrivals, and equal arrivals keep their submission order. *)
let test_same_instant_ordering () =
  let w =
    Workload.make ~reads:[ Query_class.read "q" [ fr "a" ] ~weight:1. ]
      ~updates:[]
  in
  let alloc = Ksafety.allocate ~k:1 w (Backend.homogeneous 2) in
  let run requests faults =
    Simulator.run_open_with_faults
      (Simulator.homogeneous_config 2)
      alloc requests ~faults
  in
  let one = [ Request.read ~arrival:1. ~cost_mb:90. "q" ] in
  let base = run one [] in
  let target = if base.Simulator.run.Simulator.busy.(0) > 0. then 0 else 1 in
  let other = 1 - target in
  (* A crash at the arrival instant happens first: the read is routed to
     the survivor instead of being booked, cancelled and retried. *)
  let crashed = run one [ Fault.crash ~at:1. target ] in
  Alcotest.(check int) "completed on the survivor" 1
    crashed.Simulator.run.Simulator.completed;
  Alcotest.(check int) "no retry" 0 crashed.Simulator.retries;
  Alcotest.(check (float 0.)) "crashed backend did no work" 0.
    crashed.Simulator.run.Simulator.busy.(target);
  Alcotest.(check bool) "survivor served it" true
    (crashed.Simulator.run.Simulator.busy.(other) > 0.);
  (* A slowdown starting at the arrival instant already applies. *)
  let slowed =
    run one [ Fault.slowdown ~at:1. ~backend:target ~factor:4. ~duration:10. ]
  in
  (match (base.Simulator.responses, slowed.Simulator.responses) with
  | [ (_, r0) ], [ (_, r) ] ->
      Alcotest.(check (float 1e-9)) "service x4" (4. *. r0) r
  | _ -> Alcotest.fail "expected one response per run");
  (* Equal arrivals come back in submission order, not completion order:
     1 s on one backend, then 0.5 s and 0.1 s queued on the other. *)
  let equal =
    run
      (List.map
         (fun mb -> Request.read ~arrival:0.5 ~cost_mb:mb "q")
         [ 990.; 490.; 90. ])
      []
  in
  Alcotest.(check (list (pair (float 0.) (float 1e-9))))
    "submission order" [ (0.5, 1.); (0.5, 0.5); (0.5, 0.6) ]
    equal.Simulator.responses

(* ---------------- scheduler stale / rejoin states ---------------- *)

let test_scheduler_stale_states () =
  let w =
    Workload.make
      ~reads:[ Query_class.read "q" [ fr "a" ] ~weight:0.8 ]
      ~updates:[ Query_class.update "u" [ fr "a" ] ~weight:0.2 ]
  in
  let alloc = Ksafety.allocate ~k:1 w (Backend.homogeneous 2) in
  let sched = Scheduler.create alloc in
  let q = Option.get (Workload.find w "q") in
  let position id = Option.get (Scheduler.class_position sched id) in
  (* The idle read target, then the target with that one excluded: the
     first two read candidates. *)
  let readers () =
    let read exclude =
      Scheduler.best_read_target ~exclude sched ~now:0. (position "q")
    in
    let first = read (-1) in
    (first, Option.bind first read)
  in
  let both = (Some 0, Some 1) in
  Alcotest.(check (pair (option int) (option int))) "both serve reads" both
    (readers ());
  Scheduler.set_down sched ~backend:0;
  Alcotest.(check bool) "down" false (Scheduler.is_up sched ~backend:0);
  (match Scheduler.set_stale sched ~backend:0 ~stale:true with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "set_stale on a down backend should be rejected");
  Scheduler.set_up ~stale:true sched ~backend:0;
  Alcotest.(check bool) "up again" true (Scheduler.is_up sched ~backend:0);
  Alcotest.(check bool) "but stale" true (Scheduler.is_stale sched ~backend:0);
  Alcotest.(check (pair (option int) (option int))) "stale serves no reads"
    (Some 1, None) (readers ());
  Alcotest.(check (list int)) "stale still takes updates" [ 0; 1 ]
    (Scheduler.targets_for_update_at sched (position "u"));
  Alcotest.(check int) "stale excluded from live replicas" 1
    (Scheduler.live_replicas sched q);
  Scheduler.set_stale sched ~backend:0 ~stale:false;
  Alcotest.(check (pair (option int) (option int))) "caught up: serving again"
    both (readers ())

(* ---------------- properties ---------------- *)

let requests_for (w : Workload.t) =
  let classes = Workload.all_classes w in
  List.concat_map
    (fun (c : Query_class.t) ->
      List.init 5 (fun i ->
          let arrival = float_of_int i *. 0.5 in
          if Query_class.is_update c then
            Request.update ~arrival ~cost_mb:1. c.Query_class.id
          else Request.read ~arrival ~cost_mb:1. c.Query_class.id))
    classes

(* A k-safe allocation absorbs up to k crashes: zero aborts, availability
   1.0 — requests only pay retry latency. *)
let prop_k_crashes_fully_absorbed =
  QCheck.Test.make ~count:60
    ~name:"k=1 allocation under 1 crash: availability 1.0, no errors"
    Gen.scenario_arbitrary (fun (w, backends) ->
      let n = List.length backends in
      if n < 2 then true
      else
        let alloc = Ksafety.allocate ~k:1 w backends in
        let config =
          {
            (Simulator.homogeneous_config n) with
            Simulator.speeds =
              Array.of_list (List.map (fun b -> b.Backend.load) backends);
          }
        in
        let requests = requests_for w in
        List.for_all
          (fun b ->
            let fo =
              Simulator.run_open_with_faults config alloc requests
                ~faults:[ Fault.crash ~at:1.2 b ]
            in
            fo.Simulator.aborted = 0
            && fo.Simulator.availability = 1.
            && fo.Simulator.run.Simulator.errors = 0)
          (List.init n (fun b -> b)))

(* Crashing k+1 backends may degrade service but never wedges the run:
   accounting stays consistent and the simulation terminates. *)
let prop_beyond_k_degrades_but_terminates =
  QCheck.Test.make ~count:60
    ~name:"k+1 crashes: degraded but consistent accounting"
    Gen.scenario_arbitrary (fun (w, backends) ->
      let n = List.length backends in
      if n < 2 then true
      else
        let alloc = Ksafety.allocate ~k:1 w backends in
        let fo =
          Simulator.run_open_with_faults
            (Simulator.homogeneous_config n)
            alloc (requests_for w)
            ~faults:[ Fault.crash ~at:0.7 0; Fault.crash ~at:0.9 1 ]
        in
        fo.Simulator.run.Simulator.completed + fo.Simulator.aborted
        = fo.Simulator.offered
        && fo.Simulator.availability >= 0.
        && fo.Simulator.availability <= 1.)

let prop_chaos_runs_deterministic =
  QCheck.Test.make ~count:25 ~name:"chaos runs are seed-deterministic"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let w =
        Workload.make
          ~reads:
            [
              Query_class.read "q1" [ fr "a" ] ~weight:0.5;
              Query_class.read "q2" [ fr "b" ] ~weight:0.3;
            ]
          ~updates:[ Query_class.update "u1" [ fr "a" ] ~weight:0.2 ]
      in
      let alloc = Ksafety.allocate ~k:1 w (Backend.homogeneous 3) in
      let run () =
        let rng = Rng.create seed in
        let faults =
          Chaos.generate ~rng ~num_backends:3
            { Chaos.default with Chaos.mtbf = 20.; mttr = 5.; horizon = 60. }
        in
        let requests =
          List.init 100 (fun _ ->
              let arrival = Rng.float rng 60. in
              if Rng.float rng 1. < 0.2 then
                Request.update ~arrival ~cost_mb:1. "u1"
              else Request.read ~arrival ~cost_mb:1. "q1")
        in
        let fo =
          Simulator.run_open_with_faults
            (Simulator.homogeneous_config 3)
            alloc requests ~faults
        in
        ( fo.Simulator.run.Simulator.completed,
          fo.Simulator.aborted,
          fo.Simulator.retries,
          fo.Simulator.run.Simulator.makespan,
          fo.Simulator.responses )
      in
      run () = run ())

(* Ksafety.repair leaves the allocation diagnostic-clean (including the
   ALC009/ALC010 k-safety codes) and k-safe for the survivors. *)
let prop_repair_is_clean =
  QCheck.Test.make ~count:80
    ~name:"post-repair allocations are verifier-clean and k-safe"
    Gen.scenario_arbitrary (fun (w, backends) ->
      let n = List.length backends in
      if n < 3 then true
      else begin
        let alloc = Ksafety.allocate ~k:1 w backends in
        let failed = [ n - 1 ] in
        ignore (Ksafety.repair ~k:1 ~failed alloc);
        Ksafety.effective_k ~failed alloc >= 1
        && Cdbs_analysis.Diagnostic.errors
             (Cdbs_analysis.Check_allocation.check ~k:1 alloc)
           = []
      end)

(* A crash that cancels a queued zero-length booking must not poison the
   catch-up: a lazy apply with factor 0 books no service time, and it has
   applied nothing when the crash cancels it, so the rejoin owes its whole
   volume (2 MB here) rather than 0/0. *)
let test_zero_length_booking_catch_up () =
  let w =
    Workload.make
      ~reads:[ Query_class.read "q" [ fr "a" ] ~weight:0.8 ]
      ~updates:[ Query_class.update "u" [ fr "a" ] ~weight:0.2 ]
  in
  let alloc = Ksafety.allocate ~k:1 w (Backend.homogeneous 2) in
  let requests =
    List.init 4 (fun _ -> Request.read ~arrival:0. ~cost_mb:990. "q")
    @ [ Request.update ~arrival:0.5 ~cost_mb:2. "u" ]
  in
  let config =
    {
      (Simulator.homogeneous_config 2) with
      protocol = Cdbs_cluster.Protocol.Lazy { apply_factor = 0. };
    }
  in
  let fo =
    Simulator.run_open_with_faults config alloc requests
      ~faults:[ Fault.crash ~at:1. 1; Fault.recover ~at:5. 1 ]
  in
  Alcotest.(check (float 1e-9)) "catch-up volume" 2. fo.Simulator.catch_up_mb;
  match fo.Simulator.recoveries with
  | [ r ] ->
      Alcotest.(check (float 1e-9)) "replayed volume" 2. r.Simulator.replayed_mb;
      Alcotest.(check bool) "caught up at a finite instant" true
        (Float.is_finite r.Simulator.caught_up_at
        && r.Simulator.caught_up_at >= r.Simulator.recovered_at)
  | rs -> Alcotest.failf "expected 1 recovery, got %d" (List.length rs)

let suite =
  [
    Alcotest.test_case "fault timeline: sort + validate" `Quick
      test_fault_sort_and_validate;
    Alcotest.test_case "retry policy: backoff, budget, deadline" `Quick
      test_retry_policy;
    Alcotest.test_case "chaos: deterministic, valid, capped" `Quick
      test_chaos_deterministic;
    Alcotest.test_case "late failure cancels queued work (regression)" `Quick
      test_late_failure_cancels_queued_work;
    Alcotest.test_case "fault outcome accounting" `Quick
      test_fault_outcome_accounting;
    Alcotest.test_case "failover: retries land on the survivor" `Quick
      test_failover_retries_on_survivor;
    Alcotest.test_case "recover: stale rejoin + delta catch-up" `Quick
      test_recover_and_catch_up;
    Alcotest.test_case "slowdown inflates service times" `Quick
      test_slowdown_inflates_service;
    Alcotest.test_case "scheduler: down/stale/up states" `Quick
      test_scheduler_stale_states;
    Alcotest.test_case "same-instant faults and arrivals keep order" `Quick
      test_same_instant_ordering;
    Alcotest.test_case "crash cancelling a zero-length booking" `Quick
      test_zero_length_booking_catch_up;
    QCheck_alcotest.to_alcotest prop_k_crashes_fully_absorbed;
    QCheck_alcotest.to_alcotest prop_beyond_k_degrades_but_terminates;
    QCheck_alcotest.to_alcotest prop_chaos_runs_deterministic;
    QCheck_alcotest.to_alcotest prop_repair_is_clean;
  ]
