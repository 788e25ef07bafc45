module Trace = Cdbs_workloads.Trace
module Backend = Cdbs_core.Backend
module Ksafety = Cdbs_core.Ksafety
module Topology = Cdbs_core.Topology
module Allocation = Cdbs_core.Allocation
module Simulator = Cdbs_cluster.Simulator
module Fault = Cdbs_faults.Fault
module Workload = Cdbs_core.Workload

type side = {
  label : string;
  victim_zone : int;
  zone_members : int list;
  min_spread : int;
  spread_ok : bool;
  dead_weight : float;
  effective_k_outage : int;
  availability : float;
  aborted : int;
  retried : int;
  p99_ms : float;
}

type report = {
  nodes : int;
  zones : int;
  k : int;
  outage_at : float;
  outage_ends : float;
  aware : side;
  naive : side;
  verdict : bool;
}

(* Racks are contiguous index ranges — the layout under which a
   topology-blind allocator stacks replicas the way real ones do, by
   filling neighbouring machines first. *)
let rack_topology ~zones nodes =
  Topology.make (Array.init nodes (fun b -> b * zones / nodes))

(* Weight that dies with zone [z]: classes whose every replica lives
   inside it.  The adversarial victim is the zone maximizing this —
   exactly the correlated failure domain-aware placement is built to
   deny. *)
let dead_weight ~topology alloc z =
  List.fold_left
    (fun acc (c : Cdbs_core.Query_class.t) ->
      let holders = Ksafety.class_holders alloc c in
      if
        holders <> []
        && List.for_all (fun b -> Topology.zone_of topology b = z) holders
      then acc +. c.Cdbs_core.Query_class.weight
      else acc)
    0.
    (Workload.all_classes (Allocation.workload alloc))

let pick_victim ~topology alloc =
  let best = ref 0 and best_key = ref (neg_infinity, max_int) in
  for z = 0 to Topology.zones topology - 1 do
    let dw = dead_weight ~topology alloc z in
    let ek =
      Ksafety.effective_k ~failed:(Topology.backends_in topology z) alloc
    in
    (* Most dead weight first; then the zone whose loss drops effective k
       the furthest (compare on [-ek] so a bigger drop wins). *)
    if (dw, -ek) > !best_key then begin
      best := z;
      best_key := (dw, -ek)
    end
  done;
  !best

let min_spread ~topology alloc =
  List.fold_left
    (fun acc c -> min acc (Ksafety.class_zone_spread ~topology alloc c))
    max_int
    (Workload.all_classes (Allocation.workload alloc))

let run_side ~label ~topology ~k ~config ~reqs ~outage_at
    ~outage_duration alloc =
  let victim = pick_victim ~topology alloc in
  let members = Topology.backends_in topology victim in
  let faults =
    [ Fault.zone_outage ~at:outage_at ~zone:victim ~duration:outage_duration ]
  in
  let fo =
    Simulator.run_open_with_faults ~topology config alloc reqs ~faults
  in
  {
    label;
    victim_zone = victim;
    zone_members = members;
    min_spread = min_spread ~topology alloc;
    spread_ok = Ksafety.spread_ok ~topology ~k alloc;
    dead_weight = dead_weight ~topology alloc victim;
    effective_k_outage = Ksafety.effective_k ~failed:members alloc;
    availability = fo.Simulator.availability;
    aborted = fo.Simulator.aborted;
    retried = fo.Simulator.retried_requests;
    p99_ms = 1000. *. Common.p99_of fo.Simulator.responses;
  }

(* Same workload, same seed, same adversarial full-zone outage; the only
   difference is whether the allocator saw the topology. *)
let compare_placements () =
  let nodes = 6 and zones = 2 and k = 1 and duration = 300. in
  let workload = Trace.workload_at ~hour:14. in
  let topology = rack_topology ~zones nodes in
  let backends = Backend.homogeneous nodes in
  let aware_alloc =
    Common.checked_alloc ~topology ~context:"Fig_zones aware" ~k
      (Ksafety.allocate ~topology ~k workload backends)
  in
  let naive_alloc =
    Common.checked_alloc ~context:"Fig_zones naive" ~k
      (Ksafety.allocate ~k workload backends)
  in
  let config = Simulator.homogeneous_config nodes in
  let reqs = Fig_overload.requests ~seed:11 ~rate_per_s:20. ~duration in
  let outage_at = duration /. 4. and outage_duration = duration /. 2. in
  let run = run_side ~k ~config ~reqs ~outage_at ~outage_duration in
  let aware = run ~label:"domain-aware" ~topology aware_alloc in
  let naive = run ~label:"naive" ~topology naive_alloc in
  {
    nodes;
    zones;
    k;
    outage_at;
    outage_ends = outage_at +. outage_duration;
    aware;
    naive;
    verdict = aware.availability >= 0.99 && naive.availability < 0.90;
  }

let print_side s =
  Fmt.pr
    "%-13s zone %d down (backends %a): spread>=%d %s, dead weight %.3f, \
     effective k %d@."
    s.label s.victim_zone
    Fmt.(list ~sep:(any ",") int)
    s.zone_members s.min_spread
    (if s.spread_ok then "(spread ok)" else "(spread VIOLATED)")
    s.dead_weight s.effective_k_outage;
  Fmt.pr
    "%-13s availability %.4f, aborted %d, retried %d, p99 %.1f ms@." s.label
    s.availability s.aborted s.retried s.p99_ms

let print_all () =
  Common.header "Zone outage: domain-aware vs naive k-safe placement";
  let r = compare_placements () in
  Fmt.pr
    "%d backends in %d zones, k=%d; full-zone outage %.0fs - %.0fs \
     (adversarial victim per placement)@."
    r.nodes r.zones r.k r.outage_at r.outage_ends;
  print_side r.aware;
  print_side r.naive;
  Fmt.pr "verdict: %s@."
    (if r.verdict then
       "domain-aware placement survives the outage the naive one cannot"
     else "INCONCLUSIVE — tune the scenario")
