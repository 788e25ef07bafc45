(* Protocol sanitizer: the runtime-verification monitor over simulation
   traces, plus the resilience-policy and fault-timeline lints.

   Two layers, mirroring test_analysis: clean-run properties proving the
   engine's own traces are invariant-clean under every flagship scenario
   (day, chaos, overload, migration) across seeds, and unit tests proving
   that corrupted traces and configurations trigger each TRC*/RES*/FLT*
   code. *)

module Mon = Cdbs_analysis.Monitor
module Diagnostic = Cdbs_analysis.Diagnostic
module Check_policy = Cdbs_analysis.Check_policy
module Check_faults = Cdbs_analysis.Check_faults
module Trace = Cdbs_telemetry.Trace
module Sink = Cdbs_telemetry.Sink
module Slo = Cdbs_telemetry.Slo_report
module Res = Cdbs_resilience
module Fault = Cdbs_faults.Fault
module Chaos = Cdbs_faults.Chaos
module Sim = Cdbs_cluster.Simulator
module Request = Cdbs_cluster.Request
module Rng = Cdbs_util.Rng

let codes ds = List.map (fun d -> d.Diagnostic.code) ds

let has code ds =
  if not (List.mem code (codes ds)) then
    Alcotest.failf "expected diagnostic %s, got: %s" code
      (String.concat ", " (codes ds))

let has_error code ds = has code (Diagnostic.errors ds)
let has_warning code ds = has code (Diagnostic.warnings ds)

let no_errors name ds =
  if Diagnostic.errors ds <> [] then
    Alcotest.failf "%s: unexpected errors: %s" name
      (String.concat ", " (codes (Diagnostic.errors ds)))

let clean name m =
  if not (Mon.clean m) then
    Alcotest.failf "%s: monitor found violations: %s" name
      (String.concat ", " (codes (Diagnostic.errors (Mon.report m))))

(* ------------------------------------------------------------------ *)
(* Synthetic trace vocabulary                                          *)
(* ------------------------------------------------------------------ *)

let started = Trace.Run_start { at = 0.; backends = 4; offered = 0 }
let crash at backend = Trace.Backend_crash { at; backend }

let recover ?(replay = 0.) at backend =
  Trace.Backend_recover { at; backend; replay_mb = replay }

let serve ?(kind = Trace.Read "C1") at backend =
  Trace.Backend_serve { at; backend; kind; start = at; finish = at +. 0.01 }

let breaker at backend state = Trace.Breaker_transition { at; backend; state }

let retry ?remaining at uid attempt retry_at =
  Trace.Request_retry { at; uid; attempt; retry_at; remaining_s = remaining }

let feed events =
  let m = Mon.create () in
  List.iter (Mon.observe m) events;
  m

(* ------------------------------------------------------------------ *)
(* Unit tests: each TRC code has a provoking trace                     *)
(* ------------------------------------------------------------------ *)

let test_trc001_double_crash () =
  let m = feed [ started; crash 1. 0; crash 2. 0 ] in
  has_error "TRC001" (Mon.report m);
  Alcotest.(check int) "one violation" 1 (Mon.violations m)

let test_trc002_spurious_recover () =
  let m = feed [ started; recover 1. 2 ] in
  has_error "TRC002" (Mon.report m)

let test_trc003_serve_while_down () =
  let m = feed [ started; crash 1. 0; serve 2. 0 ] in
  has_error "TRC003" (Mon.report m);
  (* Updates on a down backend are equally illegal. *)
  let m = feed [ started; crash 1. 1; serve ~kind:Trace.Update 2. 1 ] in
  has_error "TRC003" (Mon.report m)

let test_trc004_illegal_breaker_hop () =
  (* closed -> half_open skips Open. *)
  let m = feed [ started; breaker 1. 0 Trace.Half_open ] in
  has_error "TRC004" (Mon.report m);
  (* open -> closed skips the probe phase. *)
  let m =
    feed [ started; breaker 1. 0 Trace.Open; breaker 2. 0 Trace.Closed ]
  in
  has_error "TRC004" (Mon.report m)

let test_trc004_legal_cycle_clean () =
  let m =
    feed
      [
        started; breaker 1. 0 Trace.Open; breaker 2. 0 Trace.Half_open;
        breaker 3. 0 Trace.Closed; breaker 4. 0 Trace.Open;
        breaker 5. 0 Trace.Half_open; breaker 6. 0 Trace.Open;
      ]
  in
  clean "legal breaker cycle" m

let test_trc005_read_on_stale () =
  let m =
    feed [ started; crash 1. 0; recover ~replay:4. 2. 0; serve 3. 0 ]
  in
  has_error "TRC005" (Mon.report m)

let test_trc005_stale_updates_allowed () =
  (* A stale backend takes updates and catch-up work, just no reads. *)
  let m =
    feed
      [
        started; crash 1. 0; recover ~replay:4. 2. 0;
        serve ~kind:Trace.Update 3. 0; serve ~kind:Trace.Catchup 4. 0;
        Trace.Backend_catchup_done { at = 5.; backend = 0 };
        serve 6. 0;
      ]
  in
  clean "stale updates then gated rejoin" m

let test_trc005_catchup_without_pending () =
  let m =
    feed [ started; Trace.Backend_catchup_done { at = 1.; backend = 0 } ]
  in
  has_error "TRC005" (Mon.report m)

let test_trc006_below_migration_floor () =
  let m =
    feed
      [
        started;
        Trace.Migration_floor { at = 0.; cls = "C1"; floor = 2 };
        Trace.Migration_live { at = 1.; cls = "C1"; replicas = 2 };
        Trace.Migration_live { at = 2.; cls = "C1"; replicas = 1 };
      ]
  in
  has_error "TRC006" (Mon.report m);
  Alcotest.(check int) "only the drop below the floor" 1 (Mon.violations m)

let test_trc007_retry_in_past () =
  let m = feed [ started; retry 5. 7 1 4. ] in
  has_error "TRC007" (Mon.report m)

let test_trc007_attempt_not_increasing () =
  let m = feed [ started; retry 1. 7 1 1.5; retry 2. 7 1 2.5 ] in
  has_error "TRC007" (Mon.report m)

let test_trc007_budget_growing () =
  let m =
    feed
      [
        started; retry ~remaining:0.8 1. 7 1 1.5;
        retry ~remaining:1.6 2. 7 2 2.5;
      ]
  in
  has_error "TRC007" (Mon.report m)

let test_trc007_healthy_chain_clean () =
  let m =
    feed
      [
        started; retry ~remaining:1.5 1. 7 1 1.2;
        retry ~remaining:0.9 2. 7 2 2.3; retry ~remaining:0.2 3. 7 3 3.4;
      ]
  in
  clean "decreasing-budget retry chain" m

let summary ?(offered = 10) ?(completed = 8) ?(aborted = 2) ?(shed = 1)
    ?(timeouts = 1) ?(hedged = 3) ?(hedge_wins = 1) ?(offered_updates = 4)
    ?(completed_updates = 4) at =
  Trace.Run_summary
    {
      at; offered; completed; aborted; shed; timeouts; retries = 0; hedged;
      hedge_wins; offered_updates; completed_updates;
    }

let test_trc008_conservation () =
  let m = feed [ started; summary ~completed:9 10. ] in
  has_error "TRC008" (Mon.report m);
  let m = feed [ started; summary ~shed:3 10. ] in
  has_error "TRC008" (Mon.report m);
  let m = feed [ started; summary ~completed_updates:5 10. ] in
  has_error "TRC008" (Mon.report m);
  let m = feed [ started; summary 10. ] in
  clean "balanced summary" m

let hedge_armed at uid fire_at =
  Trace.Request_hedge_armed { at; uid; primary = 0; fire_at }

let hedge_win at uid = Trace.Request_hedge_win { at; uid; backend = 1 }

let test_trc009_hedge_accounting () =
  let m = feed [ started; hedge_win 1. 7 ] in
  has_error "TRC009" (Mon.report m);
  (* Arm consumed by the first win; a second win is spurious. *)
  let m =
    feed
      [
        started;
        hedge_armed 1. 7 1.5; hedge_win 2. 7; hedge_win 3. 7;
      ]
  in
  has_error "TRC009" (Mon.report m);
  (* Armed to fire in the past. *)
  let m =
    feed
      [ started; hedge_armed 2. 7 1. ]
  in
  has_error "TRC009" (Mon.report m);
  (* Wins exceeding hedges at the summary. *)
  let m = feed [ started; summary ~hedged:1 ~hedge_wins:2 10. ] in
  has_error "TRC009" (Mon.report m)

let test_trc010_span_pairing () =
  let ev at name attrs = Trace.custom ~at name attrs in
  let m = feed [ started; ev 1. "checkpoint.end" [] ] in
  has_error "TRC010" (Mon.report m);
  let m =
    feed
      [
        started; ev 1. "checkpoint.start" [];
        ev 2. "checkpoint.end" [ ("duration_s", Trace.Float (-1.)) ];
      ]
  in
  has_error "TRC010" (Mon.report m);
  let m =
    feed
      [
        started; ev 1. "checkpoint.start" [];
        ev 2. "checkpoint.end" [ ("duration_s", Trace.Float 1.) ];
        (* Unclosed spans are deliberately tolerated. *)
        ev 3. "migration.start" [];
      ]
  in
  clean "paired span and tolerated unclosed span" m

let test_trc011_event_sanity () =
  let m = feed [ started; crash (-1.) 0 ] in
  has_error "TRC011" (Mon.report m);
  let m = feed [ started; crash nan 1 ] in
  has_error "TRC011" (Mon.report m);
  (* Service interval running backwards. *)
  let m =
    feed
      [
        started;
        Trace.Backend_serve
          { at = 1.; backend = 0; kind = Read "C1"; start = 2.; finish = 1. };
      ]
  in
  has_error "TRC011" (Mon.report m)

let test_trc012_ring_overflow () =
  let sink = Sink.create ~capacity:8 () in
  let m = Mon.create () in
  Alcotest.(check bool) "attached" true (Mon.attach m sink);
  for i = 0 to 19 do
    Trace.push sink.Sink.trace (Trace.custom ~at:(float_of_int i) "tick" [])
  done;
  Alcotest.(check int) "monitor saw every event" 20 (Mon.events_seen m);
  has_warning "TRC012" (Mon.report m);
  clean "overflow is a warning, not a violation" m;
  Mon.detach m sink;
  (* Detached: overflow no longer reported, events no longer observed. *)
  Trace.push sink.Sink.trace (Trace.custom ~at:20. "tick" []);
  Alcotest.(check int) "detached monitor sees nothing" 20 (Mon.events_seen m)

(* ------------------------------------------------------------------ *)
(* Monitor mechanics                                                   *)
(* ------------------------------------------------------------------ *)

let test_run_start_resets_state () =
  (* The same crash twice is only a violation within one run. *)
  let m = feed [ started; crash 1. 0; started; crash 1. 0 ] in
  clean "state reset at run.start" m;
  Alcotest.(check int) "events counted across runs" 4 (Mon.events_seen m)

let test_attach_idempotent () =
  let sink = Sink.create () in
  let m = Mon.create () in
  Alcotest.(check bool) "first attach" true (Mon.attach m sink);
  Alcotest.(check bool) "second attach is a no-op" false (Mon.attach m sink);
  Trace.push sink.Sink.trace (Trace.custom ~at:0. "tick" []);
  Alcotest.(check int) "observed once, not twice" 1 (Mon.events_seen m)

let test_suppression_cap () =
  let spurious i = recover (float_of_int i) 2 in
  let m = feed (started :: List.init 80 spurious) in
  Alcotest.(check int) "every violation counted" 80 (Mon.violations m);
  let kept =
    List.filter (fun d -> d.Diagnostic.code = "TRC002") (Mon.report m)
  in
  (* 50 verbatim + 1 info suppression marker. *)
  Alcotest.(check int) "kept diagnostics capped" 51 (List.length kept)

let test_check_exn_raises () =
  let m = feed [ started; recover 1. 0 ] in
  (match Mon.check_exn ~context:"test" m with
  | () -> Alcotest.fail "check_exn did not raise"
  | exception Failure msg ->
      Alcotest.(check bool) "message names the context" true
        (String.length msg > 0));
  let m = feed [ started ] in
  Mon.check_exn ~context:"test" m

(* ------------------------------------------------------------------ *)
(* Clean-run properties: the engine's own traces are invariant-clean   *)
(* ------------------------------------------------------------------ *)

let trace_requests ~rng ~rate ~duration =
  List.map
    (fun (r : Request.t) ->
      { r with Request.arrival = Rng.float rng duration })
    (Cdbs_workloads.Spec.requests ~rng
       ~n:(int_of_float (rate *. duration))
       (Cdbs_workloads.Trace.specs_at ~hour:14.))

let test_chaos_runs_clean () =
  List.iter
    (fun seed ->
      let n = 4 and k = 1 and duration = 120. in
      let workload = Cdbs_workloads.Trace.workload_at ~hour:14. in
      let alloc =
        Cdbs_core.Ksafety.allocate ~k workload
          (Cdbs_core.Backend.homogeneous n)
      in
      let rng = Rng.create seed in
      let faults =
        Chaos.generate ~rng ~num_backends:n
          {
            Chaos.default with
            Chaos.mtbf = 40.;
            mttr = 10.;
            horizon = duration;
            max_concurrent_down = Some k;
          }
      in
      let reqs = trace_requests ~rng ~rate:20. ~duration in
      let monitor = Mon.create () in
      let fo =
        Sim.run_open_with_faults ~rng:(Rng.create (seed + 1))
          ~resilience:
            (Cdbs_experiments.Fig_overload.defenses ~deadline_s:1.)
          ~monitor
          (Sim.homogeneous_config n)
          alloc reqs ~faults
      in
      Alcotest.(check bool) "run completed work" true (fo.Sim.offered > 0);
      Alcotest.(check bool)
        "monitor saw the whole stream" true
        (Mon.events_seen monitor > fo.Sim.offered);
      clean (Printf.sprintf "chaos seed %d" seed) monitor)
    [ 7; 11; 42 ]

let test_day_runs_clean () =
  List.iter
    (fun seed ->
      let monitor = Mon.create () in
      let r =
        Cdbs_experiments.Fig_day.run
          ~params:{ Cdbs_experiments.Fig_day.smoke with seed }
          ~monitor ()
      in
      Alcotest.(check bool) "day produced events" true (r.Cdbs_experiments.Fig_day.events > 0);
      clean (Printf.sprintf "day seed %d" seed) monitor)
    [ 1; 2; 42 ]

let test_overload_runs_clean () =
  let monitor = Mon.create () in
  let _victim, c =
    Cdbs_experiments.Fig_overload.compare_at ~nodes:4 ~seed:11 ~duration:60.
      ~rate_per_s:120. ~monitor ()
  in
  Alcotest.(check bool) "both arms offered work" true
    (c.Cdbs_experiments.Fig_overload.defended.Cdbs_experiments.Fig_overload.offered > 0);
  clean "overload (both arms)" monitor

let test_faults_scenario_clean () =
  let monitor = Mon.create () in
  let r =
    Cdbs_experiments.Fig_faults.scenario ~monitor ()
  in
  Alcotest.(check bool) "lifecycle completed" true
    (r.Cdbs_experiments.Fig_faults.availability > 0.9);
  clean "crash/recover lifecycle" monitor

let test_migration_runs_clean () =
  let nodes = 4 in
  let plan = Cdbs_experiments.Fig_migration.plan ~nodes () in
  let target =
    Cdbs_core.Greedy.allocate
      (Cdbs_workloads.Trace.workload_at ~hour:14.)
      (Cdbs_core.Backend.homogeneous nodes)
  in
  let schedule = Cdbs_migration.Schedule.make ~start:30. ~bandwidth:2. plan in
  let rng = Rng.create 11 in
  let reqs = trace_requests ~rng ~rate:20. ~duration:120. in
  let monitor = Mon.create () in
  let mo =
    Sim.run_open_with_migration
      (Sim.homogeneous_config nodes)
      ~monitor ~target ~schedule reqs
  in
  Alcotest.(check bool) "target deployed" true mo.Sim.target_deployed;
  clean "live migration" monitor

let test_monitored_outcome_identical () =
  (* The monitor is an observer: attaching it must not change outcomes. *)
  let run ?monitor () =
    let n = 4 in
    let workload = Cdbs_workloads.Trace.workload_at ~hour:14. in
    let alloc =
      Cdbs_core.Ksafety.allocate ~k:1 workload
        (Cdbs_core.Backend.homogeneous n)
    in
    let rng = Rng.create 5 in
    let reqs = trace_requests ~rng ~rate:20. ~duration:60. in
    Sim.run_open_with_faults ?monitor
      (Sim.homogeneous_config n)
      alloc reqs
      ~faults:[ Fault.crash ~at:20. 0; Fault.recover ~at:40. 0 ]
  in
  let plain = run () in
  let monitored = run ~monitor:(Mon.create ()) () in
  Alcotest.(check int) "completed identical" plain.Sim.run.Sim.completed
    monitored.Sim.run.Sim.completed;
  Alcotest.(check int) "retries identical" plain.Sim.retries
    monitored.Sim.retries;
  Alcotest.(check (float 0.)) "makespan identical" plain.Sim.run.Sim.makespan
    monitored.Sim.run.Sim.makespan

(* ------------------------------------------------------------------ *)
(* Resilience-policy lints (RES codes)                                 *)
(* ------------------------------------------------------------------ *)

let hedge_ok =
  { Res.Hedge.percentile = 95.; min_delay = 0.05; min_observations = 20;
    window = 256 }

let test_res_cross_checks () =
  (* RES001: hedge delay floor at the deadline budget. *)
  let p =
    Res.Policy.make
      ~hedge:{ hedge_ok with Res.Hedge.min_delay = 2. }
      ~deadline:{ Res.Deadline.budget = 1. } ()
  in
  has_warning "RES001" (Check_policy.check p);
  (* RES002: admission watermark past the budget. *)
  let p =
    Res.Policy.make
      ~admission:{ Res.Admission.max_depth = 64; max_pending = 2. }
      ~deadline:{ Res.Deadline.budget = 1. } ()
  in
  has_warning "RES002" (Check_policy.check p);
  (* RES003: threshold finer than the window resolves. *)
  let p =
    Res.Policy.make
      ~breaker:
        {
          Res.Breaker.default_config with
          Res.Breaker.error_window = 1;
          error_threshold = 0.5;
        }
      ()
  in
  has_warning "RES003" (Check_policy.check p);
  (* RES004: hedging below the median. *)
  let p =
    Res.Policy.make ~hedge:{ hedge_ok with Res.Hedge.percentile = 25. } ()
  in
  has_warning "RES004" (Check_policy.check p);
  (* RES005: everything off. *)
  has "RES005" (Check_policy.check Res.Policy.off)

let test_res_invalid_params () =
  let p =
    Res.Policy.make
      ~admission:{ Res.Admission.max_depth = 0; max_pending = 1. } ()
  in
  has_error "RES006" (Check_policy.check p);
  let p =
    Res.Policy.make
      ~breaker:
        { Res.Breaker.default_config with Res.Breaker.ewma_alpha = 0. }
      ()
  in
  has_error "RES007" (Check_policy.check p);
  let p =
    Res.Policy.make ~hedge:{ hedge_ok with Res.Hedge.min_delay = 0. } ()
  in
  has_error "RES008" (Check_policy.check p);
  let p =
    Res.Policy.make ~hedge:{ hedge_ok with Res.Hedge.window = 4 } ()
  in
  has_error "RES008" (Check_policy.check p);
  let p = Res.Policy.make ~deadline:{ Res.Deadline.budget = 0. } () in
  has_error "RES009" (Check_policy.check p)

let test_res_shipped_policies_clean () =
  let defaults =
    Res.Policy.make ~admission:Res.Admission.default
      ~breaker:Res.Breaker.default_config ~hedge:Res.Hedge.default ()
  in
  no_errors "library defaults" (Check_policy.check defaults);
  Alcotest.(check int) "library defaults lint warning-free" 0
    (List.length (Diagnostic.warnings (Check_policy.check defaults)));
  let defended = Cdbs_experiments.Fig_overload.defenses ~deadline_s:1. in
  no_errors "Fig_overload.defenses" (Check_policy.check defended);
  Alcotest.(check int) "defended bundle lints warning-free" 0
    (List.length (Diagnostic.warnings (Check_policy.check defended)))

(* ------------------------------------------------------------------ *)
(* Fault-timeline lints (FLT codes)                                    *)
(* ------------------------------------------------------------------ *)

let test_flt_schedule () =
  (* FLT001: structurally invalid (recover of a running backend). *)
  has_error "FLT001"
    (Check_faults.check_schedule ~num_backends:4 [ Fault.recover ~at:5. 0 ]);
  (* FLT002: permanent failure. *)
  has_warning "FLT002"
    (Check_faults.check_schedule ~num_backends:4 [ Fault.crash ~at:5. 0 ]);
  (* FLT004: two down at once on a k=1 allocation. *)
  has_warning "FLT004"
    (Check_faults.check_schedule ~k:1 ~num_backends:4
       [
         Fault.crash ~at:1. 0; Fault.crash ~at:2. 1; Fault.recover ~at:3. 0;
         Fault.recover ~at:4. 1;
       ]);
  (* FLT006: crash-like slowdown. *)
  has_warning "FLT006"
    (Check_faults.check_schedule ~num_backends:4
       [ Fault.slowdown ~at:1. ~backend:0 ~factor:10. ~duration:5. ]);
  (* FLT007: zero-length down window. *)
  has_warning "FLT007"
    (Check_faults.check_schedule ~num_backends:4
       [ Fault.crash ~at:5. 0; Fault.recover ~at:5. 0 ]);
  (* A crash absorbed within k, recovered, is clean. *)
  no_errors "k-bounded incident"
    (Check_faults.check_schedule ~k:1 ~num_backends:4
       [ Fault.crash ~at:1. 0; Fault.recover ~at:2. 0 ])

let test_flt_params () =
  has_error "FLT008"
    (Check_faults.check_params { Chaos.default with Chaos.mtbf = 0. });
  has_error "FLT008"
    (Check_faults.check_params
       { Chaos.default with Chaos.max_concurrent_down = Some 0 });
  has_warning "FLT003"
    (Check_faults.check_params
       { Chaos.default with Chaos.mtbf = 10.; mttr = 10. });
  has_warning "FLT004"
    (Check_faults.check_params ~k:1
       { Chaos.default with Chaos.max_concurrent_down = Some 2 });
  has_warning "FLT004" (Check_faults.check_params ~k:1 Chaos.default);
  has "FLT005"
    (Check_faults.check_params { Chaos.default with Chaos.horizon = 60. });
  let bounded = { Chaos.default with Chaos.max_concurrent_down = Some 1 } in
  Alcotest.(check (list string)) "k-bounded chaos lints clean" []
    (codes (Check_faults.check_params ~k:1 bounded))

(* ------------------------------------------------------------------ *)
(* Slo_report surfaces ring overflow                                   *)
(* ------------------------------------------------------------------ *)

let test_slo_trace_dropped () =
  let h = Cdbs_telemetry.Histogram.create () in
  Cdbs_telemetry.Histogram.record h 0.01;
  let report ?trace_dropped () =
    Slo.of_histogram ~duration_s:60. ~offered:10 ~completed:10 ~shed:0
      ~failed:0 ~wasted_work_s:0. ~retries:0 ~hedges:0 ~bytes_moved_mb:0.
      ~migrations:0 ~faults_injected:0 ?trace_dropped
      ~utilization:[ (0, 0.5) ] h
  in
  let r = report ~trace_dropped:123 () in
  Alcotest.(check int) "field carried" 123 r.Slo.trace_dropped;
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "JSON carries trace_dropped" true
    (contains (Slo.to_json r) "\"trace_dropped\":123");
  Alcotest.(check bool) "pp mentions the overflow" true
    (contains (Fmt.str "%a" Slo.pp r) "trace dropped");
  let quiet = report () in
  Alcotest.(check int) "defaults to zero" 0 quiet.Slo.trace_dropped;
  Alcotest.(check bool) "silent when zero" false
    (contains (Fmt.str "%a" Slo.pp quiet) "trace dropped")

let suite =
  [
    Alcotest.test_case "TRC001: crash of a down backend" `Quick
      test_trc001_double_crash;
    Alcotest.test_case "TRC002: recovery of a running backend" `Quick
      test_trc002_spurious_recover;
    Alcotest.test_case "TRC003: work booked while down" `Quick
      test_trc003_serve_while_down;
    Alcotest.test_case "TRC004: illegal breaker hop" `Quick
      test_trc004_illegal_breaker_hop;
    Alcotest.test_case "TRC004: legal breaker cycle is clean" `Quick
      test_trc004_legal_cycle_clean;
    Alcotest.test_case "TRC005: read on a stale backend" `Quick
      test_trc005_read_on_stale;
    Alcotest.test_case "TRC005: stale updates allowed, reads gated" `Quick
      test_trc005_stale_updates_allowed;
    Alcotest.test_case "TRC005: catch-up with none pending" `Quick
      test_trc005_catchup_without_pending;
    Alcotest.test_case "TRC006: below the migration floor" `Quick
      test_trc006_below_migration_floor;
    Alcotest.test_case "TRC007: retry scheduled in the past" `Quick
      test_trc007_retry_in_past;
    Alcotest.test_case "TRC007: attempt counter stuck" `Quick
      test_trc007_attempt_not_increasing;
    Alcotest.test_case "TRC007: deadline budget growing" `Quick
      test_trc007_budget_growing;
    Alcotest.test_case "TRC007: healthy retry chain is clean" `Quick
      test_trc007_healthy_chain_clean;
    Alcotest.test_case "TRC008: conservation at run end" `Quick
      test_trc008_conservation;
    Alcotest.test_case "TRC009: hedge accounting" `Quick
      test_trc009_hedge_accounting;
    Alcotest.test_case "TRC010: span pairing" `Quick test_trc010_span_pairing;
    Alcotest.test_case "TRC011: event sanity" `Quick test_trc011_event_sanity;
    Alcotest.test_case "TRC012: ring overflow warning" `Quick
      test_trc012_ring_overflow;
    Alcotest.test_case "run.start resets protocol state" `Quick
      test_run_start_resets_state;
    Alcotest.test_case "attach is idempotent per trace" `Quick
      test_attach_idempotent;
    Alcotest.test_case "per-code suppression cap" `Quick test_suppression_cap;
    Alcotest.test_case "check_exn raises on violations" `Quick
      test_check_exn_raises;
    Alcotest.test_case "chaos runs are monitor-clean across seeds" `Quick
      test_chaos_runs_clean;
    Alcotest.test_case "day smoke is monitor-clean across seeds" `Quick
      test_day_runs_clean;
    Alcotest.test_case "overload comparison is monitor-clean" `Quick
      test_overload_runs_clean;
    Alcotest.test_case "fault lifecycle is monitor-clean" `Quick
      test_faults_scenario_clean;
    Alcotest.test_case "live migration is monitor-clean" `Quick
      test_migration_runs_clean;
    Alcotest.test_case "monitor never changes outcomes" `Quick
      test_monitored_outcome_identical;
    Alcotest.test_case "RES001-RES005: cross-defense lints" `Quick
      test_res_cross_checks;
    Alcotest.test_case "RES006-RES009: invalid parameters" `Quick
      test_res_invalid_params;
    Alcotest.test_case "shipped policies lint clean" `Quick
      test_res_shipped_policies_clean;
    Alcotest.test_case "FLT001-FLT007: schedule lints" `Quick
      test_flt_schedule;
    Alcotest.test_case "FLT003-FLT008: chaos parameter lints" `Quick
      test_flt_params;
    Alcotest.test_case "Slo_report surfaces trace overflow" `Quick
      test_slo_trace_dropped;
  ]
