(* The self-healing control loop: estimator, drift detector, guarded
   reallocation with canary + rollback, and the fig_drift headline.

   Three layers: unit tests over the estimator/detector math, synthetic
   Loop runs driving the full directive protocol (cutover, commit,
   rollback, flapping suppression) under the protocol monitor, and the
   fig_drift experiment pins — the self-tuning arm must beat the static
   arm on p99 AND availability, chaos runs must stay monitor-clean and
   k-safe across seeds. *)

module Est = Cdbs_control.Estimator
module Drift = Cdbs_control.Drift
module Loop = Cdbs_control.Loop
module Tel = Cdbs_telemetry
module Trace = Cdbs_telemetry.Trace
module Sink = Cdbs_telemetry.Sink
module Wtrace = Cdbs_workloads.Trace
module Mon = Cdbs_analysis.Monitor
module Diagnostic = Cdbs_analysis.Diagnostic
module Fdr = Cdbs_experiments.Fig_drift
module Allocation = Cdbs_core.Allocation
module Workload = Cdbs_core.Workload
module Query_class = Cdbs_core.Query_class
module Ksafety = Cdbs_core.Ksafety
module Backend = Cdbs_core.Backend
module Controller = Cdbs_cluster.Controller

let feq ?(eps = 1e-9) what a b =
  if abs_float (a -. b) > eps then
    Alcotest.failf "%s: %.12f <> %.12f" what a b

let clean name m =
  if not (Mon.clean m) then
    Alcotest.failf "%s: monitor found violations: %s" name
      (String.concat ", "
         (List.map
            (fun d -> d.Diagnostic.code)
            (Diagnostic.errors (Mon.report m))))

(* One synthetic read-serve event in the shape the simulator emits (the
   estimator keys on the "cls" tag). *)
let serve tr ~at ~cls ~dur =
  Trace.push tr
    (Backend_serve
       { at; backend = 0; kind = Read cls; start = at; finish = at +. dur })

(* ------------------------------------------------------------------ *)
(* Estimator                                                           *)
(* ------------------------------------------------------------------ *)

let test_estimator_service_mass () =
  let sink = Sink.create () in
  let est = Est.create ~half_life_windows:1. () in
  Alcotest.(check bool) "attached" true (Est.attach est sink);
  Alcotest.(check bool) "idempotent" false (Est.attach est sink);
  for i = 0 to 9 do
    serve sink.Sink.trace ~at:(float_of_int i) ~cls:"A" ~dur:0.1;
    serve sink.Sink.trace ~at:(float_of_int i) ~cls:"B" ~dur:0.3
  done;
  Alcotest.(check (list (pair string (float 1e-9))))
    "no mix before end_window" [] (Est.measured_mix est);
  Est.end_window est;
  feq "samples" (Est.samples est) 20.;
  (* Shares are service-time mass, not raw counts: equal counts, but B
     costs 3x per request, so B carries 75 % of the mass. *)
  (match Est.measured_mix est with
  | [ ("A", a); ("B", b) ] ->
      feq ~eps:1e-6 "A share" a 0.25;
      feq ~eps:1e-6 "B share" b 0.75
  | mix ->
      Alcotest.failf "unexpected mix: %s"
        (String.concat ", " (List.map fst mix)));
  Est.detach est sink

let test_estimator_decay () =
  let sink = Sink.create () in
  let est = Est.create ~half_life_windows:1. () in
  ignore (Est.attach est sink);
  for i = 0 to 9 do
    serve sink.Sink.trace ~at:(float_of_int i) ~cls:"A" ~dur:0.1
  done;
  Est.end_window est;
  for i = 0 to 9 do
    serve sink.Sink.trace ~at:(float_of_int i) ~cls:"B" ~dur:0.1
  done;
  Est.end_window est;
  (* A stopped arriving one half-life ago: its mass halved, B's is
     fresh, so B holds 2/3 of the decayed service mass. *)
  (match Est.measured_mix est with
  | [ ("A", a); ("B", b) ] ->
      feq ~eps:1e-6 "A faded" a (1. /. 3.);
      feq ~eps:1e-6 "B fresh" b (2. /. 3.)
  | _ -> Alcotest.fail "unexpected mix");
  (* Ten samples of A halved, ten fresh of B. *)
  feq "decayed samples" (Est.samples est) 15.

let read_weight w id =
  match
    List.find_opt (fun c -> String.equal c.Query_class.id id) w.Workload.reads
  with
  | Some c -> c.Query_class.weight
  | None -> Alcotest.failf "class %s missing" id

let test_estimator_merge_into () =
  let sink = Sink.create () in
  let est = Est.create ~half_life_windows:3. () in
  ignore (Est.attach est sink);
  let w = Wtrace.workload_at ~hour:12. in
  (* A month of B-only traffic: lambda ~ 1, measured mix ~ all-B. *)
  for win = 0 to 4 do
    for i = 0 to 199 do
      serve sink.Sink.trace
        ~at:((200. *. float_of_int win) +. float_of_int i)
        ~cls:"B" ~dur:1.
    done;
    Est.end_window est
  done;
  let merged = Est.merge_into est w in
  let mass wl =
    List.fold_left (fun acc c -> acc +. c.Query_class.weight) 0.
      wl.Workload.reads
  in
  feq ~eps:1e-9 "read mass preserved" (mass w) (mass merged);
  Alcotest.(check int) "updates untouched"
    (List.length w.Workload.updates)
    (List.length merged.Workload.updates);
  List.iter2
    (fun (a : Query_class.t) (b : Query_class.t) ->
      feq ~eps:1e-12 ("update " ^ a.Query_class.id) a.Query_class.weight
        b.Query_class.weight)
    w.Workload.updates merged.Workload.updates;
  if read_weight merged "B" <= read_weight w "B" then
    Alcotest.fail "B weight did not grow toward the measured mix";
  if read_weight merged "A" >= read_weight w "A" then
    Alcotest.fail "A weight did not shrink";
  (* An empty estimator merges to the unchanged workload. *)
  let empty = Est.create () in
  let same = Est.merge_into empty w in
  feq "empty merge is identity" (read_weight same "A") (read_weight w "A")

(* ------------------------------------------------------------------ *)
(* Drift detector                                                      *)
(* ------------------------------------------------------------------ *)

let test_drift_score () =
  let day = Wtrace.class_mix ~hour:12. in
  let night = Wtrace.class_mix ~hour:5. in
  feq "identical mixes score 0" (Drift.score ~assumed:day ~measured:day) 0.;
  if Drift.score ~assumed:day ~measured:night <= 0.5 then
    Alcotest.fail "day->night step should score heavily";
  (* Classes missing from one side count as share 0 there. *)
  if
    Drift.score ~assumed:[ ("A", 1.) ] ~measured:[ ("B", 1.) ] <= 1.
  then Alcotest.fail "disjoint mixes should score > 1"

let test_drift_schmitt_and_cooldown () =
  let cfg = { Drift.threshold = 1.0; hysteresis = 0.4; cooldown_s = 100. } in
  let d = Drift.create cfg in
  Alcotest.(check bool) "fires at threshold" true
    (Drift.update d ~now:0. ~score:2.);
  Alcotest.(check bool) "disarmed after firing" false
    (Drift.update d ~now:1. ~score:2.);
  (* Re-arms only below threshold - hysteresis. *)
  Alcotest.(check bool) "0.7 does not re-arm" false
    (Drift.update d ~now:2. ~score:0.7);
  Alcotest.(check bool) "still disarmed" false
    (Drift.update d ~now:3. ~score:2.);
  Alcotest.(check bool) "0.5 re-arms silently" false
    (Drift.update d ~now:4. ~score:0.5);
  Alcotest.(check bool) "fires again once re-armed" true
    (Drift.update d ~now:5. ~score:2.);
  (* The post-action cooldown suppresses even an armed detector. *)
  Drift.action_done d ~now:10.;
  ignore (Drift.update d ~now:20. ~score:0.5);
  Alcotest.(check bool) "suppressed inside cooldown" false
    (Drift.update d ~now:50. ~score:5.);
  Alcotest.(check bool) "fires at cooldown end" true
    (Drift.update d ~now:110. ~score:5.);
  Alcotest.check_raises "hysteresis >= threshold rejected"
    (Invalid_argument
       "Drift: need 0 < threshold, 0 <= hysteresis < threshold, cooldown >= 0")
    (fun () ->
      ignore
        (Drift.create
           { Drift.threshold = 0.5; hysteresis = 0.5; cooldown_s = 0. }))

(* ------------------------------------------------------------------ *)
(* Loop: synthetic directive protocol                                  *)
(* ------------------------------------------------------------------ *)

let loop_fixture ~cooldown_s () =
  let sink = Sink.create ~capacity:4096 () in
  let monitor = Mon.create () in
  ignore (Mon.attach monitor sink);
  let alloc =
    Ksafety.allocate ~k:1
      (Wtrace.workload_of_mix ~mix:(Wtrace.class_mix ~hour:12.))
      (Backend.homogeneous 4)
  in
  let config =
    {
      Loop.default with
      Loop.detector = { Drift.threshold = 0.8; hysteresis = 0.3; cooldown_s };
      min_samples = 5.;
      margin = 0.01;
      half_life_windows = 1.;
      canary_windows = 1;
      k = 1;
    }
  in
  let loop = Loop.create ~config ~sink ~allocation:alloc () in
  (sink, monitor, alloc, loop)

(* Feed one window of all-B traffic (vs the day-mix assumption) and
   report it served with the given SLO. *)
let drift_window sink loop ~w ?(p99_s = 0.1) ?(availability = 1.) () =
  let t0 = 600. *. float_of_int w in
  for i = 0 to 19 do
    serve sink.Sink.trace ~at:(t0 +. float_of_int i) ~cls:"B" ~dur:1.
  done;
  Loop.observe_window loop ~at:(t0 +. 600.) ~p99_s ~availability

let cutover_by sink loop ~max_windows =
  let rec go w =
    if w >= max_windows then
      Alcotest.failf "no cutover within %d windows" max_windows
    else
      match drift_window sink loop ~w () with
      | Loop.Cutover _ as c -> (w, c)
      | Loop.Rollback _ -> Alcotest.fail "unexpected rollback"
      | Loop.Stay -> go (w + 1)
  in
  go 0

let test_loop_cutover_and_commit () =
  let sink, monitor, alloc, loop = loop_fixture ~cooldown_s:0. () in
  let w, directive = cutover_by sink loop ~max_windows:6 in
  (match directive with
  | Loop.Cutover { next; moved_mb; _ } ->
      if moved_mb <= 0. then Alcotest.fail "cutover moved no data";
      if next == alloc then Alcotest.fail "cutover returned the incumbent";
      Alcotest.(check bool) "canary in flight" true (Loop.migrating loop)
  | _ -> assert false);
  (* A healthy canary window commits. *)
  (match drift_window sink loop ~w:(w + 1) () with
  | Loop.Stay -> ()
  | _ -> Alcotest.fail "healthy canary should Stay");
  Alcotest.(check bool) "committed" false (Loop.migrating loop);
  Alcotest.(check int) "one reallocation" 1 (Loop.reallocations loop);
  Alcotest.(check int) "one commit" 1 (Loop.commits loop);
  Alcotest.(check int) "no rollback" 0 (Loop.rollbacks loop);
  clean "cutover+commit" monitor;
  Loop.detach loop

let test_loop_rollback_on_breach () =
  let sink, monitor, alloc, loop = loop_fixture ~cooldown_s:0. () in
  let w, _ = cutover_by sink loop ~max_windows:6 in
  (* The canary window regresses 100x past the p99 guardrail. *)
  (match drift_window sink loop ~w:(w + 1) ~p99_s:10. () with
  | Loop.Rollback { prev; _ } ->
      Alcotest.(check int) "snapshot has the same cluster"
        (Allocation.num_backends alloc)
        (Allocation.num_backends prev);
      List.iter
        (fun b ->
          if
            not
              (Cdbs_core.Fragment.Set.equal
                 (Allocation.fragments_of alloc b)
                 (Allocation.fragments_of prev b))
          then Alcotest.failf "backend %d fragments not restored" b)
        (List.init (Allocation.num_backends alloc) Fun.id)
  | _ -> Alcotest.fail "breached canary must roll back");
  Alcotest.(check int) "one rollback" 1 (Loop.rollbacks loop);
  Alcotest.(check int) "no commit" 0 (Loop.commits loop);
  Alcotest.(check bool) "loop back to observing" false (Loop.migrating loop);
  (* TRC018: the rollback was preceded by a control.breach — the monitor
     would flag an unpaired one. *)
  clean "rollback pairing" monitor;
  Loop.detach loop

let test_loop_availability_breach () =
  let sink, monitor, _, loop = loop_fixture ~cooldown_s:0. () in
  let w, _ = cutover_by sink loop ~max_windows:6 in
  (match drift_window sink loop ~w:(w + 1) ~availability:0.5 () with
  | Loop.Rollback _ -> ()
  | _ -> Alcotest.fail "availability floor must roll back");
  clean "availability rollback" monitor;
  Loop.detach loop

let test_loop_flapping_suppressed () =
  (* A flapping workload (the measured mix swings every window) under an
     effectively infinite cooldown: at most ONE reallocation ever fires,
     and the monitor confirms no trigger landed inside the cooldown
     (TRC017). *)
  let sink, monitor, _, loop = loop_fixture ~cooldown_s:1e9 () in
  let actions = ref 0 in
  for w = 0 to 11 do
    let t0 = 600. *. float_of_int w in
    let cls = if w mod 2 = 0 then "B" else "A" in
    for i = 0 to 19 do
      serve sink.Sink.trace ~at:(t0 +. float_of_int i) ~cls ~dur:1.
    done;
    match
      Loop.observe_window loop ~at:(t0 +. 600.) ~p99_s:0.1 ~availability:1.
    with
    | Loop.Stay -> ()
    | Loop.Cutover _ | Loop.Rollback _ -> incr actions
  done;
  if !actions > 2 then
    Alcotest.failf "flapping caused %d directives under cooldown" !actions;
  if Loop.reallocations loop > 1 then
    Alcotest.failf "flapping caused %d reallocations in one cooldown window"
      (Loop.reallocations loop);
  clean "flapping" monitor;
  Loop.detach loop

let test_loop_set_allocation_guard () =
  let sink, _, alloc, loop = loop_fixture ~cooldown_s:0. () in
  Loop.set_allocation loop alloc;
  let _ = cutover_by sink loop ~max_windows:6 in
  (match Loop.set_allocation loop alloc with
  | () -> Alcotest.fail "set_allocation must refuse mid-canary"
  | exception Invalid_argument _ -> ());
  Loop.detach loop

(* ------------------------------------------------------------------ *)
(* fig_drift: the headline                                             *)
(* ------------------------------------------------------------------ *)

let test_fig_drift_headline () =
  let monitor = Mon.create () in
  let r = Fdr.run ~params:Fdr.smoke ~monitor () in
  Alcotest.(check bool)
    "self-tuning beats static on p99 AND availability" true (Fdr.verdict r);
  if r.Fdr.reallocations < 1 then
    Alcotest.fail "the step-change must trigger at least one reallocation";
  Alcotest.(check int) "every cutover resolves"
    r.Fdr.reallocations
    (r.Fdr.commits + r.Fdr.rollbacks);
  if r.Fdr.peak_drift < Fdr.smoke.Fdr.control.Loop.detector.Drift.threshold
  then Alcotest.fail "peak drift should cross the trigger threshold";
  (* The report surfaces the control fields. *)
  Alcotest.(check int) "report reallocations"
    r.Fdr.reallocations r.Fdr.tuned.Fdr.report.Tel.Slo_report.reallocations;
  Alcotest.(check int) "static arm reports none" 0
    r.Fdr.static_.Fdr.report.Tel.Slo_report.reallocations;
  clean "fig_drift smoke" monitor

let test_fig_drift_chaos_seeds () =
  (* Crash-during-auto-reallocation: chaos crashes and workload shifts
     land around the control pipeline across seeds.  Every run must stay
     monitor-clean (TRC016-018: no overlap, cooldown respected, every
     rollback paired with a breach) and close on a k-safe, untorn
     allocation. *)
  List.iter
    (fun seed ->
      let monitor = Mon.create () in
      let params = { Fdr.smoke with Fdr.seed; chaos = true } in
      let r = Fdr.run ~params ~monitor () in
      clean (Printf.sprintf "chaos seed %d" seed) monitor;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: cutovers resolve" seed)
        r.Fdr.reallocations
        (r.Fdr.commits + r.Fdr.rollbacks);
      let diags = Cdbs_analysis.Check_allocation.check ~k:1 r.Fdr.final_alloc in
      match Diagnostic.errors diags with
      | [] -> ()
      | es ->
          Alcotest.failf "seed %d: final allocation not k-safe/clean: %s" seed
            (String.concat ", " (List.map (fun d -> d.Diagnostic.code) es)))
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Trace mix exposure (satellite)                                      *)
(* ------------------------------------------------------------------ *)

let test_trace_mix_exposed () =
  let night = Wtrace.mix_at ~hour:5. in
  let noon = Wtrace.mix_at ~hour:12. in
  let sum m = List.fold_left (fun acc (_, w) -> acc +. w) 0. m in
  feq ~eps:1e-9 "mix_at sums to 1 (night)" (sum night) 1.;
  feq ~eps:1e-9 "mix_at sums to 1 (noon)" (sum noon) 1.;
  let b m = Option.value ~default:0. (List.assoc_opt "B" m) in
  if b night <= b noon then
    Alcotest.fail "quiz batch must dominate the night mix";
  (* mix_at is exactly the weight vector workload_at deploys. *)
  let w = Wtrace.workload_at ~hour:5. in
  List.iter
    (fun (c : Query_class.t) ->
      match List.assoc_opt c.Query_class.id night with
      | Some share -> feq ~eps:1e-9 ("share " ^ c.Query_class.id)
                        share c.Query_class.weight
      | None -> Alcotest.failf "class %s missing from mix_at" c.Query_class.id)
    (Workload.all_classes w);
  (* specs_of_mix pins all read weight on the named class. *)
  let specs = Wtrace.specs_of_mix ~mix:[ ("B", 1.) ] in
  List.iter
    (fun (s : Cdbs_workloads.Spec.class_spec) ->
      match s.Cdbs_workloads.Spec.id with
      | "B" -> feq ~eps:1e-9 "B gets the read share"
                 s.Cdbs_workloads.Spec.weight 0.95
      | "A" | "C" | "D" | "E" ->
          feq ~eps:1e-12 ("zero " ^ s.Cdbs_workloads.Spec.id)
            s.Cdbs_workloads.Spec.weight 0.
      | _ -> ())
    specs

let suite =
  [
    Alcotest.test_case "estimator measures service mass" `Quick
      test_estimator_service_mass;
    Alcotest.test_case "estimator decays absent classes" `Quick
      test_estimator_decay;
    Alcotest.test_case "merge_into blends measured into assumed" `Quick
      test_estimator_merge_into;
    Alcotest.test_case "drift score" `Quick test_drift_score;
    Alcotest.test_case "drift Schmitt trigger and cooldown" `Quick
      test_drift_schmitt_and_cooldown;
    Alcotest.test_case "loop cutover commits on a healthy canary" `Quick
      test_loop_cutover_and_commit;
    Alcotest.test_case "loop rolls back on a p99 breach" `Quick
      test_loop_rollback_on_breach;
    Alcotest.test_case "loop rolls back on an availability breach" `Quick
      test_loop_availability_breach;
    Alcotest.test_case "flapping workload is cooldown-suppressed" `Quick
      test_loop_flapping_suppressed;
    Alcotest.test_case "set_allocation refuses mid-canary" `Quick
      test_loop_set_allocation_guard;
    Alcotest.test_case "fig_drift: self-tuning beats static" `Slow
      test_fig_drift_headline;
    Alcotest.test_case "fig_drift chaos: monitor-clean and k-safe across \
                        seeds" `Slow test_fig_drift_chaos_seeds;
    Alcotest.test_case "Trace exposes the per-window mix" `Quick
      test_trace_mix_exposed;
  ]
