module Trace = Cdbs_workloads.Trace
module Backend = Cdbs_core.Backend
module Ksafety = Cdbs_core.Ksafety
module Fragment = Cdbs_core.Fragment
module Simulator = Cdbs_cluster.Simulator
module Fault = Cdbs_faults.Fault

type row = {
  k : int;
  crashes : int;
  availability : float;
  aborted : int;
  retried : int;
  retries : int;
  avg_ms : float;
  p99_ms : float;
}

type report = {
  timeline : Common.point list;
  crashed_backend : int;
  crash_at : float;
  recovered_at : float;
  caught_up_at : float;
  replayed_mb : float;
  availability : float;
  errors : int;
  retried_requests : int;
  retries : int;
  effective_k_before : int;
  effective_k_down : int;
  effective_k_repaired : int;
  repair_mb : float;
  time_to_repair : float;
}

(* Degradation grid: for each k-safety degree, crash 0..max_crashes
   backends a quarter into the run (no recovery) and measure how service
   degrades.  With crashes <= k the allocation absorbs every crash:
   availability stays 1.0 and only retried requests pay extra latency. *)
let degradation () =
  let nodes = 4 and rate_per_s = 30. and duration = 300. and seed = 11 in
  let workload = Trace.workload_at ~hour:14. in
  let config = Simulator.homogeneous_config nodes in
  List.concat_map
    (fun k ->
      let alloc =
        Common.checked_alloc ~context:"Fig_faults.degradation" ~k
          (Ksafety.allocate ~k workload (Backend.homogeneous nodes))
      in
      List.map
        (fun crashes ->
          let faults =
            List.init crashes (fun b -> Fault.crash ~at:(duration /. 4.) b)
          in
          let fo =
            Simulator.run_open_with_faults config alloc
              (Fig_overload.requests ~seed ~rate_per_s ~duration)
              ~faults
          in
          {
            k;
            crashes;
            availability = fo.Simulator.availability;
            aborted = fo.Simulator.aborted;
            retried = fo.Simulator.retried_requests;
            retries = fo.Simulator.retries;
            avg_ms = 1000. *. fo.Simulator.run.Simulator.avg_response;
            p99_ms = 1000. *. Common.p99_of fo.Simulator.responses;
          })
        [ 0; 1; 2; 3 ])
    [ 0; 1; 2 ]

(* Crash / recover / self-repair lifecycle on a k=1 cluster: the most
   critical backend crashes, the survivors absorb its load, effective k
   drops to 0, the repair loop re-replicates onto the survivors, and the
   rejoined backend catches up through the delta journal before taking
   reads again. *)
let scenario ?monitor () =
  let nodes = 4 and rate_per_s = 30. and duration = 300. and seed = 11 in
  let workload = Trace.workload_at ~hour:14. in
  let alloc =
    Common.checked_alloc ~context:"Fig_faults.scenario" ~k:1
      (Ksafety.allocate ~k:1 workload (Backend.homogeneous nodes))
  in
  let config = Simulator.homogeneous_config nodes in
  (* Crash the most critical backend — the one whose loss drops effective k
     the furthest (greedy replication leaves some backends redundant). *)
  let victim =
    let best = ref 0 and best_k = ref max_int in
    for b = 0 to nodes - 1 do
      let ek = Ksafety.effective_k ~failed:[ b ] alloc in
      if ek < !best_k then begin
        best := b;
        best_k := ek
      end
    done;
    !best
  in
  let crash_at = duration /. 3. and recover_at = 2. *. duration /. 3. in
  let faults =
    [ Fault.crash ~at:crash_at victim; Fault.recover ~at:recover_at victim ]
  in
  let fo =
    Simulator.run_open_with_faults ?monitor config alloc
      (Fig_overload.requests ~seed ~rate_per_s ~duration)
      ~faults
  in
  let recovered_at, caught_up_at, replayed_mb =
    match fo.Simulator.recoveries with
    | r :: _ ->
        ( r.Simulator.recovered_at,
          (if Float.is_nan r.Simulator.caught_up_at then r.Simulator.recovered_at
           else r.Simulator.caught_up_at),
          r.Simulator.replayed_mb )
    | [] -> (recover_at, recover_at, 0.)
  in
  let phase_of at =
    if at < crash_at then "before"
    else if at < recovered_at then "down"
    else if at < caught_up_at then "catchup"
    else "after"
  in
  let timeline =
    Common.timeline ~duration ~buckets:20 ~phase_of fo.Simulator.responses
  in
  (* The self-repair loop, at the allocation level: re-replicate what the
     crash left under-replicated, on the survivors only. *)
  let effective_k_before = Ksafety.effective_k alloc in
  let effective_k_down = Ksafety.effective_k ~failed:[ victim ] alloc in
  let gained = Ksafety.repair ~k:1 ~failed:[ victim ] alloc in
  ignore
    (Common.checked_alloc ~context:"Fig_faults.scenario repair" ~k:1 alloc);
  let effective_k_repaired = Ksafety.effective_k ~failed:[ victim ] alloc in
  let repair_mb =
    (* Obligations of the crashed backend itself ship at rejoin, not during
       the repair. *)
    let sum = ref 0. in
    Array.iteri
      (fun b frags ->
        if b <> victim then sum := !sum +. Fragment.set_size frags)
      gained;
    !sum
  in
  {
    timeline;
    crashed_backend = victim;
    crash_at;
    recovered_at;
    caught_up_at;
    replayed_mb;
    availability = fo.Simulator.availability;
    errors = fo.Simulator.run.Simulator.errors;
    retried_requests = fo.Simulator.retried_requests;
    retries = fo.Simulator.retries;
    effective_k_before;
    effective_k_down;
    effective_k_repaired;
    repair_mb;
    (* A 2 MB/s repair stream. *)
    time_to_repair = repair_mb /. 2.;
  }

let print_all () =
  Common.header "Fault injection: graceful degradation by k-safety degree";
  let grid = degradation () in
  Fmt.pr "%4s%9s%14s%9s%9s%9s%12s%12s@." "k" "crashes" "availability"
    "aborted" "retried" "retries" "avg(ms)" "p99(ms)";
  List.iter
    (fun r ->
      Fmt.pr "%4d%9d%14.4f%9d%9d%9d%12.2f%12.2f@." r.k r.crashes
        r.availability r.aborted r.retried r.retries r.avg_ms r.p99_ms)
    grid;
  Common.header "Crash, recover and self-repair on a k=1 cluster";
  let r = scenario () in
  Fmt.pr "%10s%10s%12s%8s  %s@." "from(s)" "to(s)" "resp(ms)" "req" "phase";
  List.iter
    (fun p ->
      Fmt.pr "%10.0f%10.0f%12.2f%8d  %s@." p.Common.t0 p.t1 p.avg_ms p.n
        p.phase)
    r.timeline;
  Fmt.pr
    "backend %d down %.0fs - %.0fs; caught up at %.1fs after replaying %.2f \
     MB of missed updates@."
    r.crashed_backend r.crash_at r.recovered_at r.caught_up_at r.replayed_mb;
  Fmt.pr
    "availability %.4f, errors %d, retried requests %d (%d retry attempts)@."
    r.availability r.errors r.retried_requests r.retries;
  Fmt.pr
    "self-repair: effective k %d -> %d at crash, repaired to %d by shipping \
     %.1f MB (%.1fs at 2 MB/s)@."
    r.effective_k_before r.effective_k_down r.effective_k_repaired r.repair_mb
    r.time_to_repair
