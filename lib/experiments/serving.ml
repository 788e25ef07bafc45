module Allocation = Cdbs_core.Allocation
module Simulator = Cdbs_cluster.Simulator
module Fault = Cdbs_faults.Fault
module Chaos = Cdbs_faults.Chaos
module Planner = Cdbs_migration.Planner
module Schedule = Cdbs_migration.Schedule
module Tel = Cdbs_telemetry
module Loop = Cdbs_control.Loop

type t = {
  sink : Tel.Sink.t;
  monitor : Cdbs_analysis.Monitor.t option;
  loop : Loop.t option;
  resilience : Cdbs_resilience.Policy.t;
  bandwidth_mb_s : float;
  copy_slowdown : float;
  window_s : float;
  mutable alloc : Allocation.t;
  mutable queued : Fault.timed list;
  busy : float array;
  mutable wasted : float;
  mutable bytes_moved : float;
  mutable migrations : int;
  mutable faults : int;
}

let create ?monitor ?control ~trace_capacity ~deadline_s ~bandwidth_mb_s
    ~copy_slowdown ~window_s ~backends alloc =
  let sink = Tel.Sink.create ~capacity:trace_capacity () in
  (* Attached before the loop exists, so the monitor sees its
     control.session event; it stays attached after the run so the caller
     can report ring-overflow findings. *)
  Option.iter (fun m -> ignore (Cdbs_analysis.Monitor.attach m sink)) monitor;
  {
    sink;
    monitor;
    loop =
      Option.map
        (fun config -> Loop.create ~config ~sink ~allocation:alloc ())
        control;
    resilience = Fig_overload.defenses ~deadline_s;
    bandwidth_mb_s;
    copy_slowdown;
    window_s;
    alloc;
    queued = [];
    busy = Array.make backends 0.;
    wasted = 0.;
    bytes_moved = 0.;
    migrations = 0;
    faults = 0;
  }

let sink t = t.sink
let loop t = t.loop
let allocation t = t.alloc

(* The emulated live migration: [next] serves from [at] on, while copy
   traffic contends with foreground service on every backend a move
   copies to or from — one merged slowdown per backend, clipped to the
   window starting at [at] and queued for the next [serve]. *)
let deploy t ~at ~attrs next =
  let old_fragments =
    List.init (Allocation.num_backends t.alloc)
      (Allocation.fragments_of t.alloc)
  in
  let plan = Planner.make ~old_fragments next in
  let schedule = Schedule.make ~start:at ~bandwidth:t.bandwidth_mb_s plan in
  let copy_mb = ("copy_mb", Tel.Trace.Float plan.Planner.copy_mb) in
  t.bytes_moved <- t.bytes_moved +. plan.Planner.copy_mb;
  t.migrations <- t.migrations + 1;
  Tel.Sink.ev (Some t.sink) ~at "migration.start" (attrs @ [ copy_mb ]);
  Tel.Sink.ev (Some t.sink) ~at:schedule.Schedule.copy_done
    "migration.copy_done" [ copy_mb ];
  let nodes = Allocation.num_backends next in
  let spans : (int, float * float) Hashtbl.t = Hashtbl.create 8 in
  let touch b s e =
    if b >= 0 && b < nodes && e > s then
      match Hashtbl.find_opt spans b with
      | None -> Hashtbl.replace spans b (s, e)
      | Some (s0, e0) -> Hashtbl.replace spans b (min s0 s, max e0 e)
  in
  List.iter
    (fun (tm : Schedule.timed_move) ->
      let s = max at tm.Schedule.start in
      let e = min (at +. t.window_s) tm.Schedule.finish in
      touch tm.Schedule.move.Planner.dest s e;
      match tm.Schedule.move.Planner.source with
      | Some src -> touch src s e
      | None -> ())
    schedule.Schedule.moves;
  t.queued <-
    Hashtbl.fold
      (fun b (s, e) acc ->
        Fault.slowdown ~at:s ~backend:b ~factor:(1. +. t.copy_slowdown)
          ~duration:(e -. s)
        :: acc)
      spans t.queued;
  t.alloc <- next

let migrate t ~at next =
  deploy t ~at
    ~attrs:
      [ ("from_nodes", Tel.Trace.Int (Allocation.num_backends t.alloc));
        ("to_nodes", Tel.Trace.Int (Allocation.num_backends next)) ]
    next;
  Option.iter (fun l -> Loop.set_allocation l next) t.loop

let serve t ~rng ~config ~faults requests =
  let faults = Fault.sort (t.queued @ faults) in
  t.queued <- [];
  let n = List.length faults in
  t.faults <- t.faults + n;
  let fo =
    Simulator.run_open_with_faults ~rng ~resilience:t.resilience
      ~telemetry:t.sink ?monitor:t.monitor config t.alloc requests ~faults
  in
  t.wasted <- t.wasted +. fo.Simulator.wasted_work;
  Array.iteri
    (fun b busy ->
      if b < Array.length t.busy then t.busy.(b) <- t.busy.(b) +. busy)
    fo.Simulator.run.Simulator.busy;
  (fo, n)

let observe t ~at ~p99_s (fo : Simulator.fault_outcome) =
  match t.loop with
  | None -> Loop.Stay
  | Some l ->
      let availability =
        Tel.Slo_report.availability_of ~offered:fo.Simulator.offered
          ~completed:fo.Simulator.run.Simulator.completed
      in
      let directive = Loop.observe_window l ~at ~p99_s ~availability in
      (match directive with
      | Loop.Stay -> ()
      | Loop.Cutover { next; _ } | Loop.Rollback { prev = next; _ } ->
          deploy t ~at ~attrs:[] next);
      directive

let count t name =
  Option.value ~default:0
    (Tel.Metrics.find_counter t.sink.Tel.Sink.metrics name)

let events t = count t "sim.events"

let report t ~duration_s =
  let reallocations, rollbacks, drift_score =
    match t.loop with
    | Some l -> (Loop.reallocations l, Loop.rollbacks l, Loop.peak_score l)
    | None -> (0, 0, 0.)
  in
  let shed = count t "sim.shed" in
  let report =
    Tel.Slo_report.of_histogram ~duration_s ~offered:(count t "sim.offered")
      ~completed:(count t "sim.completed") ~shed
      ~failed:(count t "sim.aborted" - shed) ~wasted_work_s:t.wasted
      ~retries:(count t "sim.retries") ~hedges:(count t "sim.hedged")
      ~bytes_moved_mb:t.bytes_moved ~migrations:t.migrations
      ~faults_injected:t.faults
      ~trace_dropped:(Tel.Trace.dropped t.sink.Tel.Sink.trace)
      ~reallocations ~rollbacks ~drift_score
      ~utilization:
        (List.init (Array.length t.busy) (fun b ->
             (b, t.busy.(b) /. duration_s)))
      (Tel.Metrics.histogram t.sink.Tel.Sink.metrics "sim.response_s")
  in
  Option.iter Loop.detach t.loop;
  report

(* Crash/recover renewals only, capped at the k = 1 guarantee: slowdown
   chaos stays off so that a migration's contention slowdowns never
   overlap another slowdown on a backend. *)
let crash_chaos ~rng ~num_backends ~mtbf ~mttr ~t0 ~window_s =
  Chaos.generate ~rng ~num_backends
    {
      Chaos.default with
      Chaos.mtbf;
      mttr;
      horizon = window_s;
      slowdown_prob = 0.;
      max_concurrent_down = Some 1;
    }
  |> List.map (fun (f : Fault.timed) -> { f with Fault.at = f.Fault.at +. t0 })
