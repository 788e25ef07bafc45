module Trace = Cdbs_workloads.Trace
module Backend = Cdbs_core.Backend
module Ksafety = Cdbs_core.Ksafety
module Simulator = Cdbs_cluster.Simulator
module Fault = Cdbs_faults.Fault
module Rng = Cdbs_util.Rng
module Res = Cdbs_resilience
module Histogram = Cdbs_telemetry.Histogram

type run_stats = {
  offered : int;
  completed : int;
  availability : float;
  avg_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  shed : int;
  shed_updates : int;
  timeouts : int;
  hedged : int;
  hedge_wins : int;
  breaker_trips : int;
  wasted_s : float;
  utilization : float array;
  offered_updates : int;
  completed_updates : int;
}

type comparison = { rate_per_s : float; undefended : run_stats; defended : run_stats }

type report = {
  sweep : comparison list;
  slow_backend : int;
  slow_factor : float;
  deadline_s : float;
}

(* Same seeded workload as the fault experiments: the midday e-learning
   mix, arrivals uniform over [0, duration). *)
let requests ~seed ~rate_per_s ~duration =
  Cdbs_workloads.Spec.uniform_requests ~rng:(Rng.create seed)
    ~n:(int_of_float (rate_per_s *. duration))
    ~t0:0. ~span:duration (Trace.specs_at ~hour:14.)

(* Both arms share the same client behaviour — requests are abandoned at
   the deadline.  The undefended arm has no server-side defense: doomed
   reads are still served (wasted capacity), slow backends keep taking
   traffic, stragglers are never hedged. *)
let clients_only ~deadline_s =
  Res.Policy.make ~deadline:(Res.Deadline.make ~budget:deadline_s) ()

let defenses ~deadline_s =
  Res.Policy.make
    ~admission:(Res.Admission.make ~max_depth:64 ~max_pending:(0.8 *. deadline_s) ())
    ~breaker:Res.Breaker.default_config ~hedge:Res.Hedge.default
    ~deadline:(Res.Deadline.make ~budget:deadline_s) ()

let stats_of (fo : Simulator.fault_outcome) =
  (* Latency percentiles through the telemetry histogram: both arms of a
     comparison use identical buckets, so the defended-vs-undefended
     ordering the acceptance criterion checks is preserved (the bucket
     map is monotone). *)
  let h = Histogram.create () in
  List.iter (fun (_, r) -> Histogram.record h r) fo.Simulator.responses;
  {
    offered = fo.Simulator.offered;
    completed = fo.Simulator.run.Simulator.completed;
    availability = fo.Simulator.availability;
    avg_ms = 1000. *. fo.Simulator.run.Simulator.avg_response;
    p50_ms = 1000. *. Histogram.percentile h 50.;
    p95_ms = 1000. *. Histogram.percentile h 95.;
    p99_ms = 1000. *. Histogram.percentile h 99.;
    shed = fo.Simulator.shed;
    shed_updates = fo.Simulator.shed_updates;
    timeouts = fo.Simulator.timeouts;
    hedged = fo.Simulator.hedged;
    hedge_wins = fo.Simulator.hedge_wins;
    breaker_trips = fo.Simulator.breaker_trips;
    wasted_s = fo.Simulator.wasted_work;
    utilization = fo.Simulator.run.Simulator.utilization;
    offered_updates = fo.Simulator.offered_updates;
    completed_updates = fo.Simulator.completed_updates;
  }

(* The gray-failure victim: the backend carrying the most read traffic in
   a clean probe run — slowing the busiest backend hurts the most, which
   is exactly the case the defenses must handle. *)
let pick_victim ~nodes ~seed ~rate_per_s ~duration alloc =
  let config = Simulator.homogeneous_config nodes in
  let probe =
    Simulator.run_open config alloc (requests ~seed ~rate_per_s ~duration)
  in
  let best = ref 0 in
  Array.iteri
    (fun b u ->
      if u > probe.Simulator.utilization.(!best) then best := b)
    probe.Simulator.utilization;
  !best

let run_one ?telemetry ?monitor ~nodes ~seed ~rate_per_s ~duration
    ~slow_backend ~slow_factor ~deadline_s ~defended alloc =
  let config = Simulator.homogeneous_config nodes in
  let faults =
    [
      Fault.slowdown ~at:(duration /. 4.) ~backend:slow_backend
        ~factor:slow_factor ~duration:(duration /. 2.);
    ]
  in
  let resilience =
    if defended then defenses ~deadline_s else clients_only ~deadline_s
  in
  let rng = if defended then Some (Rng.create (seed + 1)) else None in
  let fo =
    Simulator.run_open_with_faults ?rng ~resilience ?telemetry ?monitor config
      alloc
      (requests ~seed ~rate_per_s ~duration)
      ~faults
  in
  stats_of fo

let compare_at ?(nodes = 4) ?(seed = 11) ?(duration = 120.)
    ?(slow_factor = 3.) ?(deadline_s = 1.) ?slow_backend ?telemetry ?monitor
    ~rate_per_s () =
  let workload = Trace.workload_at ~hour:14. in
  let alloc =
    Common.checked_alloc ~context:"Fig_overload.compare_at" ~k:1
      (Ksafety.allocate ~k:1 workload (Backend.homogeneous nodes))
  in
  let slow_backend =
    match slow_backend with
    | Some b -> b
    | None -> pick_victim ~nodes ~seed ~rate_per_s ~duration alloc
  in
  let run ~defended =
    run_one ?telemetry ?monitor ~nodes ~seed ~rate_per_s ~duration
      ~slow_backend ~slow_factor ~deadline_s ~defended alloc
  in
  ( slow_backend,
    {
      rate_per_s;
      undefended = run ~defended:false;
      defended = run ~defended:true;
    } )

(* [compare_at] at its defaults across 60/120/240/360 req/s. *)
let sweep () =
  let victim = ref 0 in
  let sweep =
    List.map
      (fun rate_per_s ->
        let b, c = compare_at ~rate_per_s () in
        victim := b;
        c)
      [ 60.; 120.; 240.; 360. ]
  in
  { sweep; slow_backend = !victim; slow_factor = 3.; deadline_s = 1. }

(* The PR's acceptance criterion, reused by the CLI gate and CI smoke:
   on the same seeded workload with one slowed backend, the defended run
   must improve tail latency without giving up availability, and neither
   arm may shed an update. *)
let acceptance c =
  let violations = ref [] in
  let check cond msg = if not cond then violations := msg :: !violations in
  check
    (c.defended.p99_ms <= c.undefended.p99_ms)
    (Printf.sprintf "defended p99 %.1f ms exceeds undefended %.1f ms"
       c.defended.p99_ms c.undefended.p99_ms);
  check
    (c.defended.availability >= c.undefended.availability)
    (Printf.sprintf "defended availability %.4f below undefended %.4f"
       c.defended.availability c.undefended.availability);
  check
    (c.defended.shed_updates = 0 && c.undefended.shed_updates = 0)
    "updates were shed";
  check
    (c.defended.completed_updates = c.defended.offered_updates)
    (Printf.sprintf "defended run lost updates (%d of %d committed)"
       c.defended.completed_updates c.defended.offered_updates);
  (!violations = [], List.rev !violations)

let pp_stats ppf (label, s) =
  Fmt.pf ppf
    "%-11s avail %.4f  p50 %7.1f  p95 %7.1f  p99 %7.1f ms  shed %4d  \
     timeout %4d  hedged %4d (%d won)  trips %d  wasted %6.1fs"
    label s.availability s.p50_ms s.p95_ms s.p99_ms s.shed s.timeouts s.hedged
    s.hedge_wins s.breaker_trips s.wasted_s

let print_all () =
  Common.header
    "Overload & gray failure: offered load sweep, one backend slowed x3";
  let r = sweep () in
  Fmt.pr
    "4 nodes, k=1, deadline %.1fs; backend %d serves at x%.0f for the middle \
     half of the run@.@."
    r.deadline_s r.slow_backend r.slow_factor;
  List.iter
    (fun c ->
      Fmt.pr "offered %.0f req/s@." c.rate_per_s;
      Fmt.pr "  %a@." pp_stats ("undefended", c.undefended);
      Fmt.pr "  %a@." pp_stats ("defended", c.defended))
    r.sweep;
  match List.rev r.sweep with
  | [] -> ()
  | heaviest :: _ ->
      let ok, violations = acceptance heaviest in
      if ok then
        Fmt.pr
          "@.acceptance (at %.0f req/s): defended run improves p99 and keeps \
           availability, zero shed updates@."
          heaviest.rate_per_s
      else begin
        Fmt.pr "@.acceptance FAILED:@.";
        List.iter (fun v -> Fmt.pr "  - %s@." v) violations
      end
