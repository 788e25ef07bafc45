module Trace = Cdbs_workloads.Trace
module Backend = Cdbs_core.Backend
module Ksafety = Cdbs_core.Ksafety
module Allocation = Cdbs_core.Allocation
module Simulator = Cdbs_cluster.Simulator
module Cost_model = Cdbs_cluster.Cost_model
module Fault = Cdbs_faults.Fault
module Chaos = Cdbs_faults.Chaos
module Rng = Cdbs_util.Rng
module Tel = Cdbs_telemetry
module Loop = Cdbs_control.Loop
module Drift = Cdbs_control.Drift

(* The static allocation is planned for the early-afternoon mix; the
   adversary is the 3 am quiz-batch mix (B-dominant) refusing to recede
   when the model says it should. *)
let assumed_hour = 12.
let night_hour = 5.

type params = {
  seed : int;
  windows : int;
  window_minutes : float;
  nodes : int;
  rate_per_10min : float;
  step_window : int;
      (** window index at which the true mix step-changes to the night
          mix and stays there *)
  deadline_s : float;
  bandwidth_mb_s : float;
  copy_slowdown : float;
  scan_seconds_per_mb : float;
      (** cost-model override: heavier scans make placement (not just
          raw capacity) the bottleneck, as on the paper's real cluster *)
  chaos : bool;  (** add crash/recover + seeded workload-shift chaos *)
  mtbf : float;
  mttr : float;
  shift_mtbf : float;  (** chaos workload-shift inter-arrival *)
  trace_capacity : int;
  control : Loop.config;
}

let control_default =
  {
    Loop.default with
    Loop.detector =
      { Drift.threshold = 1.0; hysteresis = 0.4; cooldown_s = 3600. };
    min_samples = 50.;
    margin = 0.02;
    budget = 64;
    canary_windows = 1;
    half_life_windows = 2.;
    k = 1;
  }

let default =
  {
    seed = 42;
    windows = 16;
    window_minutes = 30.;
    nodes = 4;
    rate_per_10min = 4000.;
    step_window = 4;
    deadline_s = 2.;
    bandwidth_mb_s = 50.;
    copy_slowdown = 0.25;
    scan_seconds_per_mb = 0.3;
    chaos = false;
    mtbf = 7200.;
    mttr = 60.;
    shift_mtbf = 5400.;
    trace_capacity = 8192;
    control = control_default;
  }

(* Same shape at a fraction of the events: shorter windows, lower rate,
   but still past the 2-backend saturation knee so the headline ordering
   is preserved. *)
let smoke =
  {
    default with
    windows = 8;
    window_minutes = 10.;
    rate_per_10min = 2400.;
    step_window = 2;
    control =
      {
        control_default with
        Loop.detector =
          { Drift.threshold = 1.0; hysteresis = 0.4; cooldown_s = 1200. };
        min_samples = 20.;
      };
  }

type window_row = {
  hour : float;
  w_offered : int;
  w_completed : int;
  w_shed : int;
  w_p99_ms : float;
  w_action : string;  (** "", "cutover", "rollback" *)
  w_faults : int;
}

type arm = {
  report : Tel.Slo_report.t;
  rows : window_row list;
  sink : Tel.Sink.t;
}

type result = {
  params : params;
  static_ : arm;
  tuned : arm;
  reallocations : int;
  rollbacks : int;
  commits : int;
  peak_drift : float;
  final_alloc : Allocation.t;  (** the tuned arm's closing allocation *)
  events : int;
  wall_s : float;
  events_per_s : float;
}

let verdict r =
  r.tuned.report.Tel.Slo_report.p99_s <= r.static_.report.Tel.Slo_report.p99_s
  && r.tuned.report.Tel.Slo_report.availability
     >= r.static_.report.Tel.Slo_report.availability

let run ?(params = default) ?monitor () =
  let p = params in
  if p.windows < 1 || p.nodes < 2 then invalid_arg "Fig_drift.run: bad shape";
  if p.window_minutes <= 0. || p.rate_per_10min <= 0. then
    invalid_arg "Fig_drift.run: bad window/rate";
  let t_begin = Sys.time () in
  let window_s = p.window_minutes *. 60. in
  let horizon = float_of_int p.windows *. window_s in
  let day_mix = Trace.class_mix ~hour:assumed_hour in
  let night_mix = Trace.class_mix ~hour:night_hour in
  (* Serving starts at the hour the static model was planned for, so the
     arms begin aligned with the assumption and drift arrives later. *)
  let hour_of w = assumed_hour +. (float_of_int w *. p.window_minutes /. 60.) in
  (* The true per-window mix: diurnal until the step, then the night mix
     permanently (the adversarial part: the model expects the quiz batch
     to recede, it does not). *)
  let truth =
    Array.init p.windows (fun w ->
        if w < p.step_window then Trace.class_mix ~hour:(hour_of w)
        else night_mix)
  in
  let rng = Rng.create p.seed in
  (* Chaos, shared verbatim by both arms: per-window crash/recover
     renewals plus one run-long seeded workload-shift stream.  A shift
     both overrides the truth schedule from its window onward and is
     injected as a fault so the engine announces it on the trace. *)
  let window_faults = Array.make p.windows [] in
  if p.chaos then begin
    let crng = Rng.split rng in
    for w = 0 to p.windows - 1 do
      let t0 = float_of_int w *. window_s in
      window_faults.(w) <-
        Serving.crash_chaos ~rng:(Rng.split crng) ~num_backends:p.nodes
          ~mtbf:p.mtbf ~mttr:p.mttr ~t0 ~window_s
    done;
    let shifts =
      Chaos.generate ~rng:(Rng.split crng) ~num_backends:p.nodes
        {
          Chaos.default with
          Chaos.mtbf = infinity;
          mttr = 1.;
          horizon;
          slowdown_prob = 0.;
          shift_mtbf = Some p.shift_mtbf;
          shift_mixes = [ day_mix; night_mix ];
        }
    in
    List.iter
      (fun (f : Fault.timed) ->
        let w = int_of_float (f.Fault.at /. window_s) in
        if w >= 0 && w < p.windows then begin
          window_faults.(w) <- window_faults.(w) @ [ f ];
          match f.Fault.event with
          | Fault.Workload_shift { mix } ->
              (* The shift takes effect from the next window boundary:
                 this window's arrivals are already in flight. *)
              for w' = w + 1 to p.windows - 1 do
                truth.(w') <- mix
              done
          | _ -> ()
        end)
      shifts
  end;
  Array.iteri
    (fun w f -> window_faults.(w) <- Fault.sort f)
    window_faults;
  (* One shared request stream per window, so the arms are compared on
     byte-identical offered load. *)
  let n_req = int_of_float (p.rate_per_10min *. p.window_minutes /. 10.) in
  let streams =
    Array.init p.windows (fun w ->
        Cdbs_workloads.Spec.uniform_requests ~rng:(Rng.split rng) ~n:n_req
          ~t0:(float_of_int w *. window_s) ~span:window_s
          (Trace.specs_of_mix ~mix:truth.(w)))
  in
  let config =
    Simulator.homogeneous_config
      ~cost:
        {
          Cost_model.default with
          Cost_model.scan_seconds_per_mb = p.scan_seconds_per_mb;
        }
      p.nodes
  in
  let initial () =
    Common.checked_alloc ~context:"Fig_drift" ~k:1
      (Ksafety.allocate ~k:1
         (Trace.workload_of_mix ~mix:day_mix)
         (Backend.homogeneous p.nodes))
  in
  (* One serving arm: identical windows, optionally driven by the
     control loop.  [srng] keeps per-window simulator randomness
     deterministic per arm. *)
  let run_arm ~tuned =
    let s =
      Serving.create ?monitor
        ?control:(if tuned then Some p.control else None)
        ~trace_capacity:p.trace_capacity ~deadline_s:p.deadline_s
        ~bandwidth_mb_s:p.bandwidth_mb_s ~copy_slowdown:p.copy_slowdown
        ~window_s ~backends:p.nodes (initial ())
    in
    let srng = Rng.create (p.seed + if tuned then 7 else 13) in
    let rows = ref [] in
    for w = 0 to p.windows - 1 do
      let t0 = float_of_int w *. window_s in
      let fo, w_faults =
        Serving.serve s ~rng:(Rng.split srng) ~config ~faults:window_faults.(w)
          streams.(w)
      in
      let w_p99_s = Common.p99_of fo.Simulator.responses in
      let w_action =
        match Serving.observe s ~at:(t0 +. window_s) ~p99_s:w_p99_s fo with
        | Loop.Stay -> ""
        | Loop.Cutover _ -> "cutover"
        | Loop.Rollback _ -> "rollback"
      in
      rows :=
        {
          hour = hour_of w;
          w_offered = fo.Simulator.offered;
          w_completed = fo.Simulator.run.Simulator.completed;
          w_shed = fo.Simulator.shed;
          w_p99_ms = 1000. *. w_p99_s;
          w_action;
          w_faults;
        }
        :: !rows
    done;
    let report = Serving.report s ~duration_s:horizon in
    ({ report; rows = List.rev !rows; sink = Serving.sink s }, s)
  in
  let static_, s_static = run_arm ~tuned:false in
  let tuned, s_tuned = run_arm ~tuned:true in
  let reallocations, rollbacks, commits, peak_drift =
    match Serving.loop s_tuned with
    | Some l ->
        (Loop.reallocations l, Loop.rollbacks l, Loop.commits l,
         Loop.peak_score l)
    | None -> (0, 0, 0, 0.)
  in
  let events = Serving.events s_static + Serving.events s_tuned in
  let wall_s = Sys.time () -. t_begin in
  {
    params = p;
    static_;
    tuned;
    reallocations;
    rollbacks;
    commits;
    peak_drift;
    final_alloc = Serving.allocation s_tuned;
    events;
    wall_s;
    events_per_s = (if wall_s > 0. then float_of_int events /. wall_s else 0.);
  }

let to_json ?(monitor_violations = 0) r =
  Printf.sprintf
    "{\"name\":\"fig_drift\",\"seed\":%d,\"windows\":%d,\
     \"window_minutes\":%g,\"nodes\":%d,\"rate_per_10min\":%g,\
     \"step_window\":%d,\"chaos\":%b,\"events\":%d,\"wall_s\":%.3f,\
     \"events_per_s\":%.0f,\"reallocations\":%d,\"rollbacks\":%d,\
     \"commits\":%d,\"peak_drift\":%.3f,\"monitor_violations\":%d,\
     \"verdict\":%b,\"static\":%s,\"tuned\":%s}"
    r.params.seed r.params.windows r.params.window_minutes r.params.nodes
    r.params.rate_per_10min r.params.step_window r.params.chaos r.events
    r.wall_s r.events_per_s r.reallocations r.rollbacks r.commits
    r.peak_drift monitor_violations (verdict r)
    (Tel.Slo_report.to_json r.static_.report)
    (Tel.Slo_report.to_json r.tuned.report)
