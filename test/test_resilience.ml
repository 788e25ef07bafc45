(* Overload protection & gray-failure mitigation: deadline budgets,
   admission control, circuit breakers, hedged reads, the defended
   simulator paths, and the overload experiment's determinism. *)

open Cdbs_core
module Res = Cdbs_resilience
module Deadline = Res.Deadline
module Admission = Res.Admission
module Breaker = Res.Breaker
module Hedge = Res.Hedge
module Fault = Cdbs_faults.Fault
module Retry = Cdbs_faults.Retry
module Scheduler = Cdbs_cluster.Scheduler
module Simulator = Cdbs_cluster.Simulator
module Request = Cdbs_cluster.Request
module Controller = Cdbs_cluster.Controller
module Rng = Cdbs_util.Rng
module Fo = Cdbs_experiments.Fig_overload

let fr ?(size = 1.) name = Fragment.table name ~size

(* ---------------- deadline budgets ---------------- *)

let test_deadline () =
  Alcotest.(check (float 0.)) "budget" 2. (Deadline.make ~budget:2.).Deadline.budget;
  match Deadline.make ~budget:0. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "budget 0 should be rejected"

(* ---------------- admission control ---------------- *)

let test_admission () =
  let p = Admission.make ~max_depth:2 ~max_pending:0.5 () in
  Alcotest.(check bool) "fresh backend admits" true
    (Admission.decide p ~depth:0 ~pending:0. ~is_update:false = Admission.Admit);
  Alcotest.(check bool) "depth watermark sheds" true
    (Admission.decide p ~depth:2 ~pending:0. ~is_update:false = Admission.Shed);
  Alcotest.(check bool) "pending watermark sheds" true
    (Admission.decide p ~depth:0 ~pending:0.6 ~is_update:false = Admission.Shed);
  Alcotest.(check bool) "updates are never shed" true
    (Admission.decide p ~depth:99 ~pending:99. ~is_update:true
    = Admission.Admit);
  Alcotest.(check bool) "unbounded never sheds" true
    (Admission.decide
       (Admission.make ~max_depth:max_int ~max_pending:infinity ())
       ~depth:100000 ~pending:1e6
       ~is_update:false
    = Admission.Admit);
  match Admission.make ~max_depth:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max_depth 0 should be rejected"

(* ---------------- hedge delay tracker ---------------- *)

let test_hedge_delay () =
  let p =
    {
      Hedge.default with
      Hedge.percentile = 95.;
      min_delay = 0.05;
      min_observations = 10;
    }
  in
  let h = Hedge.create p in
  Alcotest.(check (float 1e-9)) "cold tracker floors at min_delay" 0.05
    (Hedge.delay h);
  for i = 1 to 100 do
    Hedge.observe h (0.001 *. float_of_int i)
  done;
  Alcotest.(check int) "reservoir bounded by window" 100 (Hedge.observations h);
  let d = Hedge.delay h in
  Alcotest.(check bool) "p95 of 1..100 ms near 95 ms" true
    (d > 0.09 && d < 0.1);
  (* All-fast latencies: the floor still applies. *)
  let h2 = Hedge.create p in
  for _ = 1 to 50 do
    Hedge.observe h2 0.001
  done;
  Alcotest.(check (float 1e-9)) "floor holds for fast reads" 0.05
    (Hedge.delay h2)

(* ---------------- circuit breaker ---------------- *)

let slow_config =
  {
    Breaker.default_config with
    ewma_alpha = 1.;
    latency_factor = 2.;
    min_samples = 3;
    cool_down = 10.;
    probes = 2;
  }

(* Backend 0 turns slow, trips, cools down, probes healthy, closes. *)
let test_breaker_round_trip () =
  let br = Breaker.create ~config:slow_config 3 in
  (* Build healthy baselines everywhere. *)
  for i = 1 to 5 do
    let now = float_of_int i in
    Breaker.record_success br ~backend:0 ~now ~latency:0.01;
    Breaker.record_success br ~backend:1 ~now ~latency:0.01;
    Breaker.record_success br ~backend:2 ~now ~latency:0.01
  done;
  Alcotest.(check bool) "closed while healthy" true
    (Breaker.state br ~backend:0 = Breaker.Closed);
  (* Gray failure: backend 0 is slow but alive (alpha 1 -> EWMA = last). *)
  Breaker.record_success br ~backend:0 ~now:6. ~latency:0.05;
  Alcotest.(check bool) "latency trip opens" true
    (Breaker.state br ~backend:0 = Breaker.Open);
  Alcotest.(check int) "one trip counted" 1 (Breaker.trips br);
  Alcotest.(check bool) "open rejects routing" false
    (Breaker.allows br ~backend:0 ~now:7.);
  Alcotest.(check bool) "peers unaffected" true
    (Breaker.allows br ~backend:1 ~now:7.);
  (* Cool-down elapses: the next allows admits a probe (Half_open). *)
  Alcotest.(check bool) "probe admitted after cool-down" true
    (Breaker.allows br ~backend:0 ~now:17.);
  Alcotest.(check bool) "half-open" true
    (Breaker.state br ~backend:0 = Breaker.Half_open);
  (* Two healthy probes close it again. *)
  Breaker.record_success br ~backend:0 ~now:17. ~latency:0.01;
  Alcotest.(check bool) "still half-open after 1 probe" true
    (Breaker.state br ~backend:0 = Breaker.Half_open);
  Breaker.record_success br ~backend:0 ~now:18. ~latency:0.01;
  Alcotest.(check bool) "closed after enough probes" true
    (Breaker.state br ~backend:0 = Breaker.Closed);
  Alcotest.(check int) "no further trips" 1 (Breaker.trips br)

(* A slow probe reopens; a second cool-down and healthy probes recover. *)
let test_breaker_slow_probe_reopens () =
  let br = Breaker.create ~config:slow_config 2 in
  for i = 1 to 5 do
    let now = float_of_int i in
    Breaker.record_success br ~backend:0 ~now ~latency:0.01;
    Breaker.record_success br ~backend:1 ~now ~latency:0.01
  done;
  Breaker.record_success br ~backend:0 ~now:6. ~latency:0.05;
  Alcotest.(check bool) "tripped" true
    (Breaker.state br ~backend:0 = Breaker.Open);
  ignore (Breaker.allows br ~backend:0 ~now:17.);
  Breaker.record_success br ~backend:0 ~now:17. ~latency:0.05;
  Alcotest.(check bool) "slow probe reopens" true
    (Breaker.state br ~backend:0 = Breaker.Open);
  Alcotest.(check int) "second trip counted" 2 (Breaker.trips br);
  ignore (Breaker.allows br ~backend:0 ~now:28.);
  Breaker.record_success br ~backend:0 ~now:28. ~latency:0.01;
  Breaker.record_success br ~backend:0 ~now:29. ~latency:0.01;
  Alcotest.(check bool) "recovers on the second attempt" true
    (Breaker.state br ~backend:0 = Breaker.Closed)

let test_breaker_error_window () =
  let config =
    {
      Breaker.default_config with
      error_window = 4;
      error_threshold = 0.5;
      cool_down = 5.;
    }
  in
  let br = Breaker.create ~config 2 in
  Breaker.record_failure br ~backend:0 ~now:1.;
  Alcotest.(check bool) "partial window does not trip" true
    (Breaker.state br ~backend:0 = Breaker.Closed);
  Breaker.record_success br ~backend:0 ~now:2. ~latency:0.01;
  Breaker.record_failure br ~backend:0 ~now:3.;
  Breaker.record_failure br ~backend:0 ~now:4.;
  Alcotest.(check bool) "3/4 failures trip" true
    (Breaker.state br ~backend:0 = Breaker.Open);
  (* Any failure in Half_open reopens immediately. *)
  ignore (Breaker.allows br ~backend:0 ~now:10.);
  Alcotest.(check bool) "half-open" true
    (Breaker.state br ~backend:0 = Breaker.Half_open);
  Breaker.record_failure br ~backend:0 ~now:10.;
  Alcotest.(check bool) "failed probe reopens" true
    (Breaker.state br ~backend:0 = Breaker.Open);
  Breaker.force_open br ~backend:0 ~now:20.;
  Alcotest.(check bool) "force_open opens" true
    (Breaker.state br ~backend:0 = Breaker.Open)

(* ---------------- scheduler routing filter ---------------- *)

let test_scheduler_healthy_filter () =
  let w =
    Workload.make ~reads:[ Query_class.read "q" [ fr "a" ] ~weight:1. ]
      ~updates:[]
  in
  let alloc = Ksafety.allocate ~k:1 w (Backend.homogeneous 3) in
  let sched = Scheduler.create alloc in
  let k = Option.get (Scheduler.class_position sched "q") in
  let read ?healthy () = Scheduler.best_read_target ?healthy sched ~now:0. k in
  let victim = Option.get (read ()) in
  (match read ~healthy:(fun b -> b <> victim) () with
  | Some b ->
      Alcotest.(check bool) "breaker-open backend steered around" true
        (b <> victim)
  | None -> Alcotest.fail "no other replica to steer to");
  (* Every breaker open: fail open, the unfiltered choice comes back. *)
  Alcotest.(check (option int)) "all-open fails open" (Some victim)
    (read ~healthy:(fun _ -> false) ())

(* ---------------- retry jitter ---------------- *)

let test_retry_jitter () =
  let p = Retry.make ~jitter:0.2 () in
  (* Without an rng the delay is exact (legacy behaviour). *)
  Alcotest.(check (float 1e-9)) "no rng: exact" p.Retry.backoff_base
    (Retry.backoff p ~attempt:1);
  let base = Retry.backoff p ~attempt:2 in
  let jittered seed =
    let rng = Rng.create seed in
    Retry.backoff ~rng p ~attempt:2
  in
  Alcotest.(check (float 1e-12)) "deterministic per seed" (jittered 3)
    (jittered 3);
  (* Bounds hold over many draws. *)
  let rng = Rng.create 9 in
  for _ = 1 to 200 do
    let d = Retry.backoff ~rng p ~attempt:2 in
    if d < base *. 0.8 -. 1e-9 || d >= base *. 1.2 +. 1e-9 then
      Alcotest.failf "jittered delay %f outside [%f, %f)" d (base *. 0.8)
        (base *. 1.2)
  done;
  (* jitter = 0 with an rng stays exact. *)
  let p0 = Retry.make ~jitter:0. () in
  Alcotest.(check (float 1e-9)) "zero jitter exact"
    (Retry.backoff p0 ~attempt:3)
    (Retry.backoff ~rng:(Rng.create 1) p0 ~attempt:3);
  match Retry.make ~jitter:1. () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "jitter >= 1 should be rejected"

(* ---------------- fault validation ---------------- *)

let test_overlapping_slowdowns_rejected () =
  let slow at = Fault.slowdown ~at ~backend:0 ~factor:2. ~duration:5. in
  Alcotest.(check bool) "overlap on one backend rejected" false
    (Fault.validate ~num_backends:2 [ slow 0.; slow 3. ] = Ok ());
  Alcotest.(check bool) "back-to-back windows allowed" true
    (Fault.validate ~num_backends:2 [ slow 0.; slow 5. ] = Ok ());
  Alcotest.(check bool) "concurrent windows on distinct backends allowed"
    true
    (Fault.validate ~num_backends:2
       [
         Fault.slowdown ~at:0. ~backend:0 ~factor:2. ~duration:5.;
         Fault.slowdown ~at:1. ~backend:1 ~factor:2. ~duration:5.;
       ]
    = Ok ())

(* ---------------- controller breaker ---------------- *)

let ctl_schema : Cdbs_storage.Schema.t =
  [
    Cdbs_storage.Schema.table "t" ~primary_key:[ "id" ]
      [ ("id", Cdbs_storage.Schema.T_int); ("v", Cdbs_storage.Schema.T_int) ];
  ]

let test_controller_breaker () =
  let c =
    Controller.create ~schema:ctl_schema ~rows:[ ("t", 20) ] ~backends:3
      ~seed:5
  in
  let br = Controller.breaker c in
  Alcotest.(check bool) "breaker tracks every backend" true
    (List.for_all
       (fun backend -> Breaker.state br ~backend = Breaker.Closed)
       [ 0; 1; 2 ]);
  (* Force a backend open: reads keep being answered (steered or failed
     open), and results stay correct. *)
  Breaker.force_open br ~backend:0 ~now:0.;
  for _ = 1 to 5 do
    match Controller.submit c "SELECT id FROM t WHERE v >= 0" with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done

(* ---------------- defended simulator scenarios ---------------- *)

let overload_scenario () =
  let w =
    Workload.make
      ~reads:[ Query_class.read "q" [ fr "a" ] ~weight:0.8 ]
      ~updates:[ Query_class.update "u" [ fr "a" ] ~weight:0.2 ]
  in
  let alloc = Ksafety.allocate ~k:1 w (Backend.homogeneous 2) in
  let rng = Rng.create 3 in
  let requests =
    List.init 400 (fun i ->
        let arrival = Rng.float rng 20. in
        if i mod 5 = 0 then Request.update ~arrival ~cost_mb:20. "u"
        else Request.read ~arrival ~cost_mb:150. "q")
  in
  (alloc, requests)

let run_defended ?rng ~resilience ?(faults = []) () =
  let alloc, requests = overload_scenario () in
  Simulator.run_open_with_faults ?rng ~resilience
    (Simulator.homogeneous_config 2)
    alloc requests ~faults

(* Shedding under pressure: reads are shed, every update survives, and the
   accounting identity still closes. *)
let test_shedding_preserves_updates () =
  let resilience =
    Res.Policy.make
      ~admission:(Admission.make ~max_depth:4 ~max_pending:0.2 ())
      ()
  in
  let fo = run_defended ~resilience () in
  Alcotest.(check bool) "overload sheds reads" true (fo.Simulator.shed > 0);
  Alcotest.(check int) "zero shed updates" 0 fo.Simulator.shed_updates;
  Alcotest.(check int) "every update committed" fo.Simulator.offered_updates
    fo.Simulator.completed_updates;
  Alcotest.(check int) "completed + aborted = offered" fo.Simulator.offered
    (fo.Simulator.run.Simulator.completed + fo.Simulator.aborted);
  Alcotest.(check bool) "shed requests count as aborted" true
    (fo.Simulator.aborted >= fo.Simulator.shed)

(* Doomed reads are refused up front instead of served past the deadline:
   with admission on, nothing completes after its deadline and no booked
   service is wasted on abandoned requests. *)
let test_deadline_refuses_doomed_work () =
  let deadline = Res.Deadline.make ~budget:1.5 in
  let undefended = Res.Policy.make ~deadline () in
  let defended =
    Res.Policy.make ~admission:(Admission.make ()) ~deadline ()
  in
  let u = run_defended ~resilience:undefended () in
  let d = run_defended ~resilience:defended () in
  Alcotest.(check bool) "undefended wastes capacity on doomed reads" true
    (u.Simulator.wasted_work > 0.);
  Alcotest.(check (float 1e-9)) "defended wastes none" 0.
    d.Simulator.wasted_work;
  Alcotest.(check bool) "goodput no worse when defended" true
    (d.Simulator.availability >= u.Simulator.availability)

(* Shed-oldest-first among queued reads that arrived at the same instant
   evicts the newest booking: the victim search walks a backend's
   bookings newest first and only a strictly earlier arrival displaces
   the current pick. *)
let test_shed_victim_tie () =
  let w =
    Workload.make ~reads:[ Query_class.read "q" [ fr "a" ] ~weight:1. ]
      ~updates:[]
  in
  let alloc = Baselines.full_replication w (Backend.homogeneous 1) in
  let resilience =
    Res.Policy.make
      ~admission:(Admission.make ~max_depth:3 ~max_pending:100. ())
      ()
  in
  let sink = Cdbs_telemetry.Sink.create () in
  (* Uid 0 starts at once, uids 1 and 2 queue behind it, uid 3 finds the
     queue full. *)
  let requests = List.init 4 (fun _ -> Request.read ~cost_mb:30. "q") in
  let fo =
    Simulator.run_open_with_faults ~resilience ~telemetry:sink
      (Simulator.homogeneous_config 1) alloc requests ~faults:[]
  in
  let shed_uids =
    List.filter_map
      (function
        | Cdbs_telemetry.Trace.Request_shed { uid; _ } -> Some uid | _ -> None)
      (Cdbs_telemetry.Trace.events sink.Cdbs_telemetry.Sink.trace)
  in
  Alcotest.(check int) "one read shed" 1 fo.Simulator.shed;
  Alcotest.(check (list int)) "the newest of the tied queued reads" [ 2 ]
    shed_uids

(* Without admission control a read quoted past its deadline is booked
   anyway and counted as timed out and aborted at once.  A crash that
   cancels that booking must not re-issue the read and count it a second
   time. *)
let test_crash_skips_abandoned_reads () =
  let requests = Fo.requests ~seed:42 ~rate_per_s:300. ~duration:60. in
  let alloc =
    Ksafety.allocate ~k:1
      (Cdbs_workloads.Trace.workload_at ~hour:14.)
      (Backend.homogeneous 4)
  in
  List.iter
    (fun victim ->
      let monitor = Cdbs_analysis.Monitor.create () in
      let fo =
        Simulator.run_open_with_faults ~monitor
          ~resilience:(Fo.clients_only ~deadline_s:1.)
          (Simulator.homogeneous_config 4) alloc requests
          ~faults:[ Fault.crash ~at:30. victim; Fault.recover ~at:40. victim ]
      in
      let label = Printf.sprintf "crash of backend %d: " victim in
      Alcotest.(check int) (label ^ "completed + aborted = offered")
        fo.Simulator.offered
        (fo.Simulator.run.Simulator.completed + fo.Simulator.aborted);
      Alcotest.(check int) (label ^ "monitor violations") 0
        (Cdbs_analysis.Monitor.violations monitor))
    [ 0; 3 ]

(* ---------------- properties ---------------- *)

let requests_for (w : Workload.t) rng =
  let classes = Workload.all_classes w in
  List.concat_map
    (fun (c : Query_class.t) ->
      List.init 8 (fun _ ->
          let arrival = Rng.float rng 4. in
          if Query_class.is_update c then
            Request.update ~arrival ~cost_mb:30. c.Query_class.id
          else Request.read ~arrival ~cost_mb:30. c.Query_class.id))
    classes

(* Hedged reads are an optimisation, not a semantic change: with hedging
   on (and an aggressive policy so it actually fires), the accounting
   identity holds, every request completes exactly once, and update
   volume is not double-counted by the speculative read legs. *)
let prop_hedging_preserves_outcomes =
  QCheck.Test.make ~count:60
    ~name:"hedged reads: outcomes unchanged, updates not double-counted"
    Gen.scenario_arbitrary (fun (w, backends) ->
      let n = List.length backends in
      if n < 2 then true
      else
        let alloc = Ksafety.allocate ~k:1 w backends in
        let config = Simulator.homogeneous_config n in
        let rng = Rng.create 17 in
        let requests = requests_for w rng in
        let hedged =
          Simulator.run_open_with_faults
            ~resilience:
              (Res.Policy.make
                 ~hedge:{ Hedge.default with Hedge.min_delay = 0.01; min_observations = 5 }
                 ())
            config alloc requests ~faults:[]
        in
        let plain =
          Simulator.run_open_with_faults config alloc requests ~faults:[]
        in
        hedged.Simulator.run.Simulator.completed + hedged.Simulator.aborted
        = hedged.Simulator.offered
        && hedged.Simulator.run.Simulator.completed
           = plain.Simulator.run.Simulator.completed
        && hedged.Simulator.aborted = plain.Simulator.aborted
        && hedged.Simulator.offered_updates
           = hedged.Simulator.completed_updates
        && hedged.Simulator.hedge_wins <= hedged.Simulator.hedged
        && List.length hedged.Simulator.responses
           = hedged.Simulator.run.Simulator.completed)

(* Admission control sheds only reads, whatever the workload. *)
let prop_shedding_never_touches_updates =
  QCheck.Test.make ~count:60 ~name:"admission control never sheds an update"
    Gen.scenario_arbitrary (fun (w, backends) ->
      let n = List.length backends in
      let alloc = Ksafety.allocate ~k:(min 1 (n - 1)) w backends in
      let fo =
        Simulator.run_open_with_faults
          ~resilience:
            (Res.Policy.make
               ~admission:(Admission.make ~max_depth:1 ~max_pending:0.05 ())
               ())
          (Simulator.homogeneous_config n)
          alloc
          (requests_for w (Rng.create 23))
          ~faults:[]
      in
      fo.Simulator.shed_updates = 0
      && fo.Simulator.offered_updates = fo.Simulator.completed_updates
      && fo.Simulator.run.Simulator.completed + fo.Simulator.aborted
         = fo.Simulator.offered)

(* The full overload experiment is replayable: same seed, same report. *)
let prop_overload_deterministic =
  QCheck.Test.make ~count:4 ~name:"overload comparison is seed-deterministic"
    QCheck.(int_range 0 50)
    (fun seed ->
      let run () =
        let b, c =
          Fo.compare_at ~seed ~duration:20. ~rate_per_s:80. ~slow_backend:0 ()
        in
        (b, c)
      in
      run () = run ())

let suite =
  [
    Alcotest.test_case "deadline budgets" `Quick test_deadline;
    Alcotest.test_case "admission: watermarks, update exemption" `Quick
      test_admission;
    Alcotest.test_case "hedge delay: percentile with floor" `Quick
      test_hedge_delay;
    Alcotest.test_case "breaker: open -> half-open -> closed round trip"
      `Quick test_breaker_round_trip;
    Alcotest.test_case "breaker: slow probe reopens, then recovers" `Quick
      test_breaker_slow_probe_reopens;
    Alcotest.test_case "breaker: error window and forced states" `Quick
      test_breaker_error_window;
    Alcotest.test_case "scheduler: breaker filter fails open" `Quick
      test_scheduler_healthy_filter;
    Alcotest.test_case "retry jitter: seeded, bounded, off by default" `Quick
      test_retry_jitter;
    Alcotest.test_case "fault validate: overlapping slowdowns rejected"
      `Quick test_overlapping_slowdowns_rejected;
    Alcotest.test_case "controller: breaker wiring and read steering" `Quick
      test_controller_breaker;
    Alcotest.test_case "shedding preserves all updates" `Quick
      test_shedding_preserves_updates;
    Alcotest.test_case "deadline budgets refuse doomed work" `Quick
      test_deadline_refuses_doomed_work;
    Alcotest.test_case "a crash never re-issues an abandoned read" `Quick
      test_crash_skips_abandoned_reads;
    QCheck_alcotest.to_alcotest prop_hedging_preserves_outcomes;
    QCheck_alcotest.to_alcotest prop_shedding_never_touches_updates;
    QCheck_alcotest.to_alcotest prop_overload_deterministic;
    Alcotest.test_case "shed-oldest: arrival ties evict the newest" `Quick
      test_shed_victim_tie;
  ]
