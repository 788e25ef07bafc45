module Trace = Cdbs_workloads.Trace
module Spec = Cdbs_workloads.Spec
module Backend = Cdbs_core.Backend
module Ksafety = Cdbs_core.Ksafety
module Allocation = Cdbs_core.Allocation
module Simulator = Cdbs_cluster.Simulator
module Cost_model = Cdbs_cluster.Cost_model
module Request = Cdbs_cluster.Request
module Fault = Cdbs_faults.Fault
module Chaos = Cdbs_faults.Chaos
module Planner = Cdbs_migration.Planner
module Schedule = Cdbs_migration.Schedule
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

let p99_of responses =
  let h = Tel.Histogram.create () in
  List.iter (fun (_, r) -> Tel.Histogram.record h r) responses;
  Tel.Histogram.percentile h 99.

(* Merged per-backend contention spans of a migration schedule, clamped
   to the serving window starting at [t0]: copy traffic contends with
   foreground service on every backend a move touches. *)
let contention_faults ~t0 ~window_s ~nodes ~factor
    (schedule : Schedule.t) =
  let spans : (int, float * float) Hashtbl.t = Hashtbl.create 8 in
  let touch b s e =
    if b >= 0 && b < nodes && e > s then
      match Hashtbl.find_opt spans b with
      | None -> Hashtbl.replace spans b (s, e)
      | Some (s0, e0) -> Hashtbl.replace spans b (min s0 s, max e0 e)
  in
  List.iter
    (fun (tm : Schedule.timed_move) ->
      let s = max t0 tm.Schedule.start in
      let e = min (t0 +. window_s) tm.Schedule.finish in
      touch tm.Schedule.move.Planner.dest s e;
      match tm.Schedule.move.Planner.source with
      | Some src -> touch src s e
      | None -> ())
    schedule.Schedule.moves;
  Hashtbl.fold
    (fun b (s, e) acc ->
      Fault.slowdown ~at:s ~backend:b ~factor:(1. +. factor)
        ~duration:(e -. s)
      :: acc)
    spans []

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
        Chaos.generate ~rng:(Rng.split crng) ~num_backends:p.nodes
          {
            Chaos.mtbf = p.mtbf;
            mttr = p.mttr;
            horizon = window_s;
            slowdown_prob = 0.;
            slowdown_factor = 3.;
            max_concurrent_down = Some 1;
            correlated_mtbf = None;
            partition_prob = 0.;
            zones = 1;
            shift_mtbf = None;
            shift_mixes = [];
          }
        |> List.map (fun (f : Fault.timed) ->
               { f with Fault.at = f.Fault.at +. t0 })
    done;
    let shifts =
      Chaos.generate ~rng:(Rng.split crng) ~num_backends:p.nodes
        {
          Chaos.mtbf = infinity;
          mttr = 1.;
          horizon;
          slowdown_prob = 0.;
          slowdown_factor = 3.;
          max_concurrent_down = None;
          correlated_mtbf = None;
          partition_prob = 0.;
          zones = 1;
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
        let wrng = Rng.split rng in
        let t0 = float_of_int w *. window_s in
        Spec.requests ~rng:wrng ~n:n_req (Trace.specs_of_mix ~mix:truth.(w))
        |> List.map (fun (r : Request.t) ->
               { r with Request.arrival = t0 +. Rng.float wrng window_s }))
  in
  let resilience = Fig_overload.defenses ~deadline_s:p.deadline_s in
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
  let events = ref 0 in
  (* One serving arm: identical windows, optionally driven by the
     control loop.  [srng] keeps per-window simulator randomness
     deterministic per arm. *)
  let run_arm ~tuned =
    let sink = Tel.Sink.create ~capacity:p.trace_capacity () in
    (match monitor with
    | Some m -> ignore (Cdbs_analysis.Monitor.attach m sink)
    | None -> ());
    let telemetry = Some sink in
    let srng = Rng.create (p.seed + if tuned then 7 else 13) in
    let alloc = ref (initial ()) in
    let loop =
      if tuned then
        Some (Loop.create ~config:p.control ~sink ~allocation:!alloc ())
      else None
    in
    let pending_mig = ref [] in
    let offered = ref 0 and completed = ref 0 in
    let shed = ref 0 and failed = ref 0 in
    let retries = ref 0 and hedges = ref 0 in
    let wasted = ref 0. and faults_n = ref 0 in
    let bytes_moved = ref 0. and migrations = ref 0 in
    let busy_acc = Array.make p.nodes 0. in
    let rows = ref [] in
    for w = 0 to p.windows - 1 do
      let t0 = float_of_int w *. window_s in
      let faults = Fault.sort (!pending_mig @ window_faults.(w)) in
      pending_mig := [];
      faults_n := !faults_n + List.length faults;
      let fo =
        Simulator.run_open_with_faults ~rng:(Rng.split srng) ~resilience
          ~telemetry:sink ?monitor config !alloc streams.(w) ~faults
      in
      offered := !offered + fo.Simulator.offered;
      completed := !completed + fo.Simulator.run.Simulator.completed;
      shed := !shed + fo.Simulator.shed;
      failed := !failed + (fo.Simulator.aborted - fo.Simulator.shed);
      retries := !retries + fo.Simulator.retries;
      hedges := !hedges + fo.Simulator.hedged;
      wasted := !wasted +. fo.Simulator.wasted_work;
      events := !events + fo.Simulator.events;
      Array.iteri
        (fun b busy -> if b < p.nodes then busy_acc.(b) <- busy_acc.(b) +. busy)
        fo.Simulator.run.Simulator.busy;
      let w_p99_s = p99_of fo.Simulator.responses in
      let action = ref "" in
      (match loop with
      | None -> ()
      | Some loop ->
          let availability =
            if fo.Simulator.offered = 0 then 1.
            else
              float_of_int fo.Simulator.run.Simulator.completed
              /. float_of_int fo.Simulator.offered
          in
          let migrate next =
            let old_fragments =
              List.init (Allocation.num_backends !alloc)
                (Allocation.fragments_of !alloc)
            in
            let plan = Planner.make ~old_fragments next in
            let t_next = t0 +. window_s in
            let schedule =
              Schedule.make ~start:t_next ~bandwidth:p.bandwidth_mb_s plan
            in
            bytes_moved := !bytes_moved +. plan.Planner.copy_mb;
            incr migrations;
            Tel.Sink.ev telemetry ~at:t_next "migration.start"
              [ ("copy_mb", Tel.Trace.Float plan.Planner.copy_mb) ];
            Tel.Sink.ev telemetry ~at:schedule.Schedule.copy_done
              "migration.copy_done"
              [ ("copy_mb", Tel.Trace.Float plan.Planner.copy_mb) ];
            pending_mig :=
              contention_faults ~t0:t_next ~window_s ~nodes:p.nodes
                ~factor:p.copy_slowdown schedule;
            alloc := next
          in
          (match
             Loop.observe_window loop ~at:(t0 +. window_s) ~p99_s:w_p99_s
               ~availability
           with
          | Loop.Stay -> ()
          | Loop.Cutover { next; _ } ->
              action := "cutover";
              migrate next
          | Loop.Rollback { prev; _ } ->
              action := "rollback";
              migrate prev));
      rows :=
        {
          hour = hour_of w;
          w_offered = fo.Simulator.offered;
          w_completed = fo.Simulator.run.Simulator.completed;
          w_shed = fo.Simulator.shed;
          w_p99_ms = 1000. *. w_p99_s;
          w_action = !action;
          w_faults = List.length faults;
        }
        :: !rows
    done;
    let hist =
      match
        Tel.Metrics.find_histogram sink.Tel.Sink.metrics "sim.response_s"
      with
      | Some h -> h
      | None -> Tel.Histogram.create ()
    in
    let reallocations, rollbacks, drift_score =
      match loop with
      | Some l -> (Loop.reallocations l, Loop.rollbacks l, Loop.peak_score l)
      | None -> (0, 0, 0.)
    in
    let report =
      Tel.Slo_report.of_histogram ~duration_s:horizon ~offered:!offered
        ~completed:!completed ~shed:!shed ~failed:!failed
        ~wasted_work_s:!wasted ~retries:!retries ~hedges:!hedges
        ~bytes_moved_mb:!bytes_moved ~migrations:!migrations
        ~faults_injected:!faults_n
        ~trace_dropped:(Tel.Trace.dropped sink.Tel.Sink.trace)
        ~reallocations ~rollbacks ~drift_score
        ~utilization:
          (List.init p.nodes (fun b -> (b, busy_acc.(b) /. horizon)))
        hist
    in
    (match loop with Some l -> Loop.detach l | None -> ());
    ({ report; rows = List.rev !rows; sink }, loop, !alloc)
  in
  let static_, _, _ = run_arm ~tuned:false in
  let tuned, loop, final_alloc = run_arm ~tuned:true in
  let reallocations, rollbacks, commits, peak_drift =
    match loop with
    | Some l ->
        (Loop.reallocations l, Loop.rollbacks l, Loop.commits l,
         Loop.peak_score l)
    | None -> (0, 0, 0, 0.)
  in
  let wall_s = Sys.time () -. t_begin in
  {
    params = p;
    static_;
    tuned;
    reallocations;
    rollbacks;
    commits;
    peak_drift;
    final_alloc;
    events = !events;
    wall_s;
    events_per_s = (if wall_s > 0. then float_of_int !events /. wall_s else 0.);
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

let print_arm name (a : arm) =
  Fmt.pr "@.%s:@." name;
  Fmt.pr "%6s%9s%10s%7s%10s%10s%8s@." "hour" "offered" "completed" "shed"
    "p99(ms)" "action" "faults";
  List.iter
    (fun w ->
      Fmt.pr "%6.1f%9d%10d%7d%10.1f%10s%8d@." w.hour w.w_offered
        w.w_completed w.w_shed w.w_p99_ms w.w_action w.w_faults)
    a.rows;
  Fmt.pr "@.%a@." Tel.Slo_report.pp a.report

let print_all () =
  Common.header
    "Workload drift: self-tuning control loop vs static allocation under \
     an adversarial step-change";
  let r = run () in
  print_arm "static allocation" r.static_;
  print_arm "self-tuning" r.tuned;
  Fmt.pr "@.reallocations %d (%d rolled back, %d committed), peak drift \
          %.2f@."
    r.reallocations r.rollbacks r.commits r.peak_drift;
  Fmt.pr "verdict: self-tuning %s (p99 %.0f ms vs %.0f ms, availability \
          %.4f vs %.4f)@."
    (if verdict r then "wins" else "does NOT win")
    (1000. *. r.tuned.report.Tel.Slo_report.p99_s)
    (1000. *. r.static_.report.Tel.Slo_report.p99_s)
    r.tuned.report.Tel.Slo_report.availability
    r.static_.report.Tel.Slo_report.availability
