module Trace = Cdbs_workloads.Trace
module Spec = Cdbs_workloads.Spec
module Backend = Cdbs_core.Backend
module Ksafety = Cdbs_core.Ksafety
module Allocation = Cdbs_core.Allocation
module Simulator = Cdbs_cluster.Simulator
module Request = Cdbs_cluster.Request
module Fault = Cdbs_faults.Fault
module Chaos = Cdbs_faults.Chaos
module Planner = Cdbs_migration.Planner
module Schedule = Cdbs_migration.Schedule
module Rng = Cdbs_util.Rng
module Tel = Cdbs_telemetry
module Loop = Cdbs_control.Loop

type params = {
  seed : int;
  scale : float;
  window_minutes : float;
  nodes_min : int;
  nodes_max : int;
  capacity_per_node : float;
  bandwidth_mb_s : float;
  copy_slowdown : float;
  deadline_s : float;
  mtbf : float;
  mttr : float;
  trace_capacity : int;
  autotune : bool;
}

let default =
  {
    seed = 42;
    scale = 3.;
    window_minutes = 30.;
    nodes_min = 2;
    nodes_max = 6;
    capacity_per_node = 5.;
    bandwidth_mb_s = 50.;
    copy_slowdown = 0.25;
    deadline_s = 2.;
    mtbf = 7200.;
    mttr = 60.;
    trace_capacity = 8192;
    autotune = false;
  }

(* Same shape at ~3 % of the events; the tighter per-node capacity keeps
   the autoscaler (and therefore the live-migration path) exercised at
   the reduced load. *)
let smoke =
  { default with scale = 0.1; window_minutes = 120.; capacity_per_node = 0.12 }

type window_row = {
  hour : float;
  rate_per_10min : float;
  nodes : int;
  w_offered : int;
  w_completed : int;
  w_shed : int;
  w_p99_ms : float;
  migrating : bool;
  w_faults : int;
}

type result = {
  params : params;
  report : Tel.Slo_report.t;
  windows : window_row list;
  events : int;
  wall_s : float;
  events_per_s : float;
  sink : Tel.Sink.t;
}

let run ?(params = default) ?monitor () =
  let p = params in
  if p.nodes_min < 1 || p.nodes_max < p.nodes_min then
    invalid_arg "Fig_day.run: bad node bounds";
  if p.window_minutes <= 0. || p.scale <= 0. then
    invalid_arg "Fig_day.run: bad window/scale";
  let t_begin = Sys.time () in
  let rng = Rng.create p.seed in
  let sink = Tel.Sink.create ~capacity:p.trace_capacity () in
  (* Attached up front, so the monitor sees every window's stream plus
     the migration events emitted at this level; it stays attached after
     the run so the caller can report ring-overflow findings. *)
  (match monitor with
  | Some m -> ignore (Cdbs_analysis.Monitor.attach m sink)
  | None -> ());
  let telemetry = Some sink in
  let resilience = Fig_overload.defenses ~deadline_s:p.deadline_s in
  let day_s = 24. *. 3600. in
  let window_s = p.window_minutes *. 60. in
  let steps = int_of_float (ceil (24. *. 60. /. p.window_minutes)) in
  let alloc_for ~hour nodes =
    Common.checked_alloc ~context:"Fig_day" ~k:1
      (Ksafety.allocate ~k:1 (Trace.workload_at ~hour)
         (Backend.homogeneous nodes))
  in
  let nodes = ref p.nodes_min in
  let alloc = ref (alloc_for ~hour:0. !nodes) in
  (* The self-healing loop observes the same sink the day serves on.  It
     re-measures from scratch after every autoscaler resize (the resize
     resets the assumed mix via [set_allocation]); a control cutover's
     canary blocks resizes for its duration, so the two reallocation
     paths never overlap. *)
  let loop =
    if p.autotune then
      Some (Loop.create ~config:Fig_drift.control_default ~sink
              ~allocation:!alloc ())
    else None
  in
  let pending_ctl = ref [] in
  let busy_acc = Array.make p.nodes_max 0. in
  let offered = ref 0 and completed = ref 0 in
  let shed = ref 0 and failed = ref 0 in
  let retries = ref 0 and hedges = ref 0 in
  let wasted = ref 0. and events = ref 0 in
  let bytes_moved = ref 0. and migrations = ref 0 and faults_n = ref 0 in
  let rows = ref [] in
  for w = 0 to steps - 1 do
    let t0 = float_of_int w *. window_s in
    let hour = t0 /. 3600. in
    let rate10 = Trace.rate_per_10min ~hour *. p.scale in
    (* Autoscale for the window: 25 % headroom over the offered rate,
       clamped to the configured cluster bounds. *)
    let qps = rate10 /. 600. in
    let target =
      max p.nodes_min
        (min p.nodes_max
           (int_of_float (ceil (qps *. 1.25 /. p.capacity_per_node))))
    in
    (* A resize deploys as a live migration: the new placement serves from
       the window boundary while its copy traffic contends with foreground
       service on every backend it touches (one merged slowdown window per
       backend, clamped to this simulation window). *)
    (* A control cutover's canary owns the cluster until it commits or
       rolls back: the autoscaler stands down for those windows (TRC016
       forbids overlapping reallocations). *)
    let resizable =
      match loop with Some l -> not (Loop.migrating l) | None -> true
    in
    let mig_faults, migrating =
      if target = !nodes || not resizable then ([], false)
      else begin
        let next = alloc_for ~hour target in
        let old_fragments =
          List.init (Allocation.num_backends !alloc)
            (Allocation.fragments_of !alloc)
        in
        let plan = Planner.make ~old_fragments next in
        let schedule =
          Schedule.make ~start:t0 ~bandwidth:p.bandwidth_mb_s plan
        in
        bytes_moved := !bytes_moved +. plan.Planner.copy_mb;
        incr migrations;
        Tel.Sink.ev telemetry ~at:t0 "migration.start"
          [ ("from_nodes", Tel.Trace.Int !nodes);
            ("to_nodes", Tel.Trace.Int target);
            ("copy_mb", Tel.Trace.Float plan.Planner.copy_mb) ];
        Tel.Sink.ev telemetry ~at:schedule.Schedule.copy_done
          "migration.copy_done"
          [ ("copy_mb", Tel.Trace.Float plan.Planner.copy_mb) ];
        nodes := target;
        alloc := next;
        (* The resize resets the loop's assumed mix: it re-measures
           against the freshly planned allocation from here on. *)
        (match loop with
        | Some l -> Loop.set_allocation l next
        | None -> ());
        ( Fig_drift.contention_faults ~t0 ~window_s ~nodes:target
            ~factor:p.copy_slowdown schedule,
          true )
      end
    in
    (* Chaos for the window: crash/recover renewals, capped at the k=1
       guarantee.  (Slowdown-type chaos is off so the migration-contention
       slowdowns above can never overlap another slowdown on a backend.) *)
    let crng = Rng.split rng in
    let chaos =
      Chaos.generate ~rng:crng ~num_backends:!nodes
        {
          Chaos.mtbf = p.mtbf;
          mttr = p.mttr;
          horizon = window_s;
          slowdown_prob = 0.;
          slowdown_factor = 3.;
          max_concurrent_down = Some 1;
          correlated_mtbf = None;
          partition_prob = 0.5;
          zones = 1;
          shift_mtbf = None;
          shift_mixes = [];
        }
      |> List.map (fun (f : Fault.timed) ->
             { f with Fault.at = f.Fault.at +. t0 })
    in
    let faults = Fault.sort (mig_faults @ !pending_ctl @ chaos) in
    pending_ctl := [];
    faults_n := !faults_n + List.length faults;
    (* The window's offered load, arrivals uniform over the window. *)
    let wrng = Rng.split rng in
    let n_req = int_of_float (rate10 *. p.window_minutes /. 10.) in
    let requests =
      Spec.requests ~rng:wrng ~n:n_req (Trace.specs_at ~hour)
      |> List.map (fun (r : Request.t) ->
             { r with Request.arrival = t0 +. Rng.float wrng window_s })
    in
    let config = Simulator.homogeneous_config !nodes in
    let rrng = Rng.split rng in
    let fo =
      Simulator.run_open_with_faults ~rng:rrng ~resilience ~telemetry:sink
        ?monitor config !alloc requests ~faults
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
      (fun b busy -> if b < p.nodes_max then
          busy_acc.(b) <- busy_acc.(b) +. busy)
      fo.Simulator.run.Simulator.busy;
    let w_p99_ms = 1000. *. Fig_drift.p99_of fo.Simulator.responses in
    (* Feed the window to the control loop and execute its directive as a
       live migration cutting over at the next window boundary, with copy
       contention exactly like a resize's. *)
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
          pending_ctl :=
            Fig_drift.contention_faults ~t0:t_next ~window_s ~nodes:!nodes
              ~factor:p.copy_slowdown schedule;
          alloc := next
        in
        match
          Loop.observe_window loop ~at:(t0 +. window_s)
            ~p99_s:(w_p99_ms /. 1000.) ~availability
        with
        | Loop.Stay -> ()
        | Loop.Cutover { next; _ } -> migrate next
        | Loop.Rollback { prev; _ } -> migrate prev);
    rows :=
      {
        hour;
        rate_per_10min = rate10;
        nodes = !nodes;
        w_offered = fo.Simulator.offered;
        w_completed = fo.Simulator.run.Simulator.completed;
        w_shed = fo.Simulator.shed;
        w_p99_ms;
        migrating;
        w_faults = List.length faults;
      }
      :: !rows
  done;
  let day_hist =
    match Tel.Metrics.find_histogram sink.Tel.Sink.metrics "sim.response_s" with
    | Some h -> h
    | None -> Tel.Histogram.create ()
  in
  let reallocations, rollbacks, drift_score =
    match loop with
    | Some l -> (Loop.reallocations l, Loop.rollbacks l, Loop.peak_score l)
    | None -> (0, 0, 0.)
  in
  let report =
    Tel.Slo_report.of_histogram ~duration_s:day_s ~offered:!offered
      ~completed:!completed ~shed:!shed ~failed:!failed ~wasted_work_s:!wasted
      ~retries:!retries ~hedges:!hedges ~bytes_moved_mb:!bytes_moved
      ~migrations:!migrations ~faults_injected:!faults_n
      ~trace_dropped:(Tel.Trace.dropped sink.Tel.Sink.trace)
      ~reallocations ~rollbacks ~drift_score
      ~utilization:
        (List.init p.nodes_max (fun b -> (b, busy_acc.(b) /. day_s)))
      day_hist
  in
  (match loop with Some l -> Loop.detach l | None -> ());
  let wall_s = Sys.time () -. t_begin in
  {
    params = p;
    report;
    windows = List.rev !rows;
    events = !events;
    wall_s;
    events_per_s =
      (if wall_s > 0. then float_of_int !events /. wall_s else 0.);
    sink;
  }

let to_json ?(monitor_violations = 0) r =
  Printf.sprintf
    "{\"name\":\"fig_day\",\"seed\":%d,\"scale\":%g,\"window_minutes\":%g,\
     \"nodes_min\":%d,\"nodes_max\":%d,\"autotune\":%b,\"windows\":%d,\
     \"events\":%d,\"wall_s\":%.3f,\"events_per_s\":%.0f,\
     \"trace_dropped\":%d,\"monitor_violations\":%d,\"slo\":%s}"
    r.params.seed r.params.scale r.params.window_minutes r.params.nodes_min
    r.params.nodes_max r.params.autotune (List.length r.windows) r.events
    r.wall_s r.events_per_s r.report.Tel.Slo_report.trace_dropped
    monitor_violations
    (Tel.Slo_report.to_json r.report)

let write_json ?monitor_violations ~path r =
  let oc = open_out path in
  output_string oc (to_json ?monitor_violations r);
  output_char oc '\n';
  close_out oc

let print_all () =
  Common.header
    "A day in production: diurnal load x autoscaling x live migration x \
     chaos x defenses";
  let r = run () in
  Fmt.pr "%6s%10s%7s%9s%10s%7s%10s%5s%8s@." "hour" "rate/10m" "nodes"
    "offered" "completed" "shed" "p99(ms)" "mig" "faults";
  List.iter
    (fun w ->
      Fmt.pr "%6.1f%10.0f%7d%9d%10d%7d%10.1f%5s%8d@." w.hour
        w.rate_per_10min w.nodes w.w_offered w.w_completed w.w_shed
        w.w_p99_ms
        (if w.migrating then "yes" else "")
        w.w_faults)
    r.windows;
  Fmt.pr "@.%a@." Tel.Slo_report.pp r.report;
  Fmt.pr "@.%d events in %.1f s (%.0f events/s)@." r.events r.wall_s
    r.events_per_s
