module Trace = Cdbs_workloads.Trace
module Greedy = Cdbs_core.Greedy
module Backend = Cdbs_core.Backend
module Allocation = Cdbs_core.Allocation
module Planner = Cdbs_migration.Planner
module Schedule = Cdbs_migration.Schedule
module Simulator = Cdbs_cluster.Simulator
module Rng = Cdbs_util.Rng

type report = {
  timeline : Common.point list;
  copy_start : float;
  copy_done : float;
  copied_mb : float;
  full_rebuild_mb : float;
  replayed_mb : float;
  before_ms : float;
  during_ms : float;
  after_ms : float;
  errors : int;
  min_live_replicas : int;
  target_deployed : bool;
}

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let allocations ~nodes ~from_hour ~to_hour =
  (* The cluster still runs the off-peak allocation when the new mix hits. *)
  let old_alloc =
    Greedy.allocate (Trace.workload_at ~hour:from_hour)
      (Backend.homogeneous nodes)
  in
  let target =
    Greedy.allocate (Trace.workload_at ~hour:to_hour)
      (Backend.homogeneous nodes)
  in
  (old_alloc, target)

(* Plans built here self-verify (expand-then-contract, placement equation,
   replica floors) whenever debug checks are active — which they are for
   every experiment run, since loading Common installs the verifier. *)
let checked_plan ~context target plan =
  if Cdbs_core.Invariants.active () then
    Cdbs_analysis.Check_migration.check_plan_exn ~context
      ~workload:(Allocation.workload target) plan;
  plan

let checked_schedule ~context schedule =
  if Cdbs_core.Invariants.active () then
    Cdbs_analysis.Check_migration.check_schedule_exn ~context schedule;
  schedule

let plan ?(nodes = 4) ?(from_hour = 4.) ?(to_hour = 14.) () =
  let old_alloc, target = allocations ~nodes ~from_hour ~to_hour in
  let old_fragments = List.init nodes (Allocation.fragments_of old_alloc) in
  checked_plan ~context:"Fig_migration.plan" target
    (Planner.make ~old_fragments target)

let scenario ?(nodes = 4) ?(bandwidth = 2.) ?(rate_per_s = 40.)
    ?(duration = 600.) ?(migrate_at = 150.) ?(seed = 11) ?(from_hour = 4.)
    ?(to_hour = 14.) () =
  let old_alloc, target = allocations ~nodes ~from_hour ~to_hour in
  let old_fragments =
    List.init nodes (Allocation.fragments_of old_alloc)
  in
  let plan =
    checked_plan ~context:"Fig_migration.scenario" target
      (Planner.make ~old_fragments target)
  in
  let schedule =
    checked_schedule ~context:"Fig_migration.scenario"
      (Schedule.make ~start:migrate_at ~bandwidth plan)
  in
  let requests =
    Cdbs_workloads.Spec.uniform_requests ~rng:(Rng.create seed)
      ~n:(int_of_float (rate_per_s *. duration))
      ~t0:0. ~span:duration (Trace.specs_at ~hour:to_hour)
  in
  let config = Simulator.homogeneous_config plan.Planner.num_physical in
  let mo = Simulator.run_open_with_migration config ~target ~schedule requests in
  let copy_done = mo.Simulator.copy_done in
  let phase_of at =
    if at < migrate_at then "before"
    else if at < copy_done then "copy"
    else "after"
  in
  let timeline =
    Common.timeline ~duration ~buckets:20 ~phase_of mo.Simulator.responses
  in
  let in_phase p =
    List.filter_map
      (fun (arrival, response) ->
        if phase_of arrival = p then Some response else None)
      mo.Simulator.responses
  in
  {
    timeline;
    copy_start = migrate_at;
    copy_done;
    copied_mb = mo.Simulator.copied_mb;
    full_rebuild_mb = plan.Planner.full_rebuild_mb;
    replayed_mb = mo.Simulator.replayed_mb;
    before_ms = 1000. *. mean (in_phase "before");
    during_ms = 1000. *. mean (in_phase "copy");
    after_ms = 1000. *. mean (in_phase "after");
    errors = mo.Simulator.run.Simulator.errors;
    min_live_replicas =
      List.fold_left
        (fun acc (_, m) -> min acc m)
        max_int mo.Simulator.min_live_replicas;
    target_deployed = mo.Simulator.target_deployed;
  }

let print_all () =
  Common.header "Live migration: response-time timeline during a rebalance";
  let r = scenario () in
  Fmt.pr "%10s%10s%12s%8s  %s@." "from(s)" "to(s)" "resp(ms)" "req" "phase";
  List.iter
    (fun p ->
      Fmt.pr "%10.0f%10.0f%12.2f%8d  %s@." p.Common.t0 p.t1 p.avg_ms p.n
        p.phase)
    r.timeline;
  Fmt.pr
    "copy phase %.0fs - %.0fs; response before %.2f ms, during copy %.2f ms, \
     after %.2f ms@."
    r.copy_start r.copy_done r.before_ms r.during_ms r.after_ms;
  Fmt.pr
    "shipped %.1f MB live (full rebuild would ship %.1f MB, %.0f%% saved), \
     replayed %.2f MB of deltas@."
    r.copied_mb r.full_rebuild_mb
    (100. *. (1. -. (r.copied_mb /. r.full_rebuild_mb)))
    r.replayed_mb;
  Fmt.pr
    "routing errors: %d, min live replicas per class: %d, target deployed: \
     %b@."
    r.errors r.min_live_replicas r.target_deployed
