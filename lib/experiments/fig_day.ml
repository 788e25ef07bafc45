module Trace = Cdbs_workloads.Trace
module Backend = Cdbs_core.Backend
module Ksafety = Cdbs_core.Ksafety
module Simulator = Cdbs_cluster.Simulator
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
  let day_s = 24. *. 3600. in
  let window_s = p.window_minutes *. 60. in
  let steps = int_of_float (ceil (24. *. 60. /. p.window_minutes)) in
  let alloc_for ~hour nodes =
    Common.checked_alloc ~context:"Fig_day" ~k:1
      (Ksafety.allocate ~k:1 (Trace.workload_at ~hour)
         (Backend.homogeneous nodes))
  in
  let nodes = ref p.nodes_min in
  (* The self-healing loop observes the same sink the day serves on.  It
     re-measures from scratch after every autoscaler resize; a control
     cutover's canary blocks resizes for its duration, so the two
     reallocation paths never overlap (TRC016). *)
  let s =
    Serving.create ?monitor
      ?control:(if p.autotune then Some Fig_drift.control_default else None)
      ~trace_capacity:p.trace_capacity ~deadline_s:p.deadline_s
      ~bandwidth_mb_s:p.bandwidth_mb_s ~copy_slowdown:p.copy_slowdown
      ~window_s ~backends:p.nodes_max
      (alloc_for ~hour:0. !nodes)
  in
  let rows = ref [] in
  for w = 0 to steps - 1 do
    let t0 = float_of_int w *. window_s in
    let hour = t0 /. 3600. in
    let rate10 = Trace.rate_per_10min ~hour *. p.scale in
    (* Autoscale for the window: 25 % headroom over the offered rate,
       clamped to the configured cluster bounds; the resize deploys as a
       live migration from the window boundary. *)
    let qps = rate10 /. 600. in
    let target =
      max p.nodes_min
        (min p.nodes_max
           (int_of_float (ceil (qps *. 1.25 /. p.capacity_per_node))))
    in
    let resizable =
      match Serving.loop s with Some l -> not (Loop.migrating l) | None -> true
    in
    let migrating = target <> !nodes && resizable in
    if migrating then begin
      Serving.migrate s ~at:t0 (alloc_for ~hour target);
      nodes := target
    end;
    let crng = Rng.split rng in
    let chaos =
      Serving.crash_chaos ~rng:crng ~num_backends:!nodes ~mtbf:p.mtbf
        ~mttr:p.mttr ~t0 ~window_s
    in
    let wrng = Rng.split rng in
    let requests =
      Cdbs_workloads.Spec.uniform_requests ~rng:wrng
        ~n:(int_of_float (rate10 *. p.window_minutes /. 10.))
        ~t0 ~span:window_s (Trace.specs_at ~hour)
    in
    let rrng = Rng.split rng in
    let fo, w_faults =
      Serving.serve s ~rng:rrng ~config:(Simulator.homogeneous_config !nodes)
        ~faults:chaos requests
    in
    let w_p99_ms = 1000. *. Common.p99_of fo.Simulator.responses in
    ignore
      (Serving.observe s ~at:(t0 +. window_s) ~p99_s:(w_p99_ms /. 1000.) fo);
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
        w_faults;
      }
      :: !rows
  done;
  let report = Serving.report s ~duration_s:day_s in
  let events = Serving.events s in
  let wall_s = Sys.time () -. t_begin in
  {
    params = p;
    report;
    windows = List.rev !rows;
    events;
    wall_s;
    events_per_s = (if wall_s > 0. then float_of_int events /. wall_s else 0.);
    sink = Serving.sink s;
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
