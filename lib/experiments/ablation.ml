module Tpcapp = Cdbs_workloads.Tpcapp
module Tpch = Cdbs_workloads.Tpch
module Backend = Cdbs_core.Backend
module Allocation = Cdbs_core.Allocation
module Greedy = Cdbs_core.Greedy
module Memetic = Cdbs_core.Memetic
module Optimal = Cdbs_core.Optimal
module Replication = Cdbs_core.Replication
module Ksafety = Cdbs_core.Ksafety
module Robustness = Cdbs_core.Robustness
module Simulator = Cdbs_cluster.Simulator
module Rng = Cdbs_util.Rng

let eb = 300

let app_cost =
  {
    Cdbs_cluster.Cost_model.default with
    Cdbs_cluster.Cost_model.base_latency = 0.;
    scan_seconds_per_mb = 0.0117;
    sync_overhead = 0.03;
  }

(* Per backend count, for greedy / memetic / optimal (small instances):
   (name, scale, stored MB) on the TPC-App table workload. *)
let solver_comparison () =
  let workload = Tpcapp.workload ~granularity:`Table ~eb in
  List.map
    (fun n ->
      let backends = Backend.homogeneous n in
      let greedy = Greedy.allocate workload backends in
      let memetic = Memetic.improve ~rng:(Rng.create 23) greedy in
      let entries =
        [
          ("greedy", Allocation.scale greedy, Allocation.total_stored greedy);
          ( "memetic",
            Allocation.scale memetic,
            Allocation.total_stored memetic );
        ]
      in
      let entries =
        match
          Optimal.allocate ~node_limit:20_000 (Optimal.coarsen workload)
            backends
        with
        | Ok r ->
            entries
            @ [
                ( (if r.Optimal.proved_optimal then "optimal"
                   else "optimal (best found)"),
                  r.Optimal.scale, r.Optimal.space );
              ]
        | Error _ -> entries
      in
      (n, entries))
    [ 2; 3; 4 ]

let local_search_contribution () =
  let workload = Tpcapp.workload ~granularity:`Column ~eb in
  let backends = Backend.homogeneous 8 in
  let greedy = Greedy.allocate workload backends in
  List.map
    (fun (name, mode) ->
      let params =
        { Memetic.default_params with Memetic.local_search_mode = mode }
      in
      let improved = Memetic.improve ~params ~rng:(Rng.create 31) greedy in
      (name, Allocation.scale improved, Allocation.total_stored improved))
    [
      ("no local search", Memetic.No_local_search);
      ("strategy 1 only", Memetic.Consolidate_only);
      ("both strategies", Memetic.Both_strategies);
    ]

(* For k = 0, 1, 2 on TPC-App with 6 backends: (k, scale, degree of
   replication, simulated throughput q/s). *)
let ksafety_overhead () =
  let workload = Tpcapp.workload ~granularity:`Table ~eb in
  let backends = Backend.homogeneous 6 in
  List.map
    (fun k ->
      let alloc = Ksafety.allocate ~k workload backends in
      let rng = Rng.create 41 in
      let reqs = Tpcapp.requests ~rng ~granularity:`Table ~eb ~n:6000 in
      let outcome = Common.simulate ~cost:app_cost alloc reqs in
      ( k,
        Allocation.scale alloc,
        Replication.degree alloc,
        outcome.Simulator.throughput ))
    [ 0; 1; 2 ]

let protocol_comparison () =
  let table_workload = Tpcapp.workload ~granularity:`Table ~eb in
  let backends = Backend.homogeneous 8 in
  let reqs =
    Tpcapp.requests ~rng:(Rng.create 19) ~granularity:`Table ~eb ~n:8000
  in
  let allocations =
    [
      ("full", Cdbs_core.Baselines.full_replication table_workload backends);
      ("table", Greedy.allocate table_workload backends);
    ]
  in
  List.concat_map
    (fun (aname, alloc) ->
      List.map
        (fun protocol ->
          let outcome = Common.simulate ~cost:app_cost ~protocol alloc reqs in
          ( aname,
            Cdbs_cluster.Protocol.name protocol,
            outcome.Simulator.throughput,
            outcome.Simulator.avg_response ))
        [
          Cdbs_cluster.Protocol.Rowa; Cdbs_cluster.Protocol.Primary_copy;
          Cdbs_cluster.Protocol.Lazy { apply_factor = 0.3 };
        ])
    allocations

(* For each single backend failure of a 1-safe 4-backend allocation:
   (failed backend, survives with k=1, survives with k=0). *)
let failover () =
  let workload = Tpcapp.workload ~granularity:`Table ~eb in
  let backends = Backend.homogeneous 4 in
  let safe = Ksafety.allocate ~k:1 workload backends in
  let unsafe = Greedy.allocate workload backends in
  List.init 4 (fun b ->
      ( b + 1,
        Ksafety.survives safe ~failed:[ b ],
        Ksafety.survives unsafe ~failed:[ b ] ))

(* Classification granularity on the time-partitioned event archive:
   (granularity, scale, predicted speedup on 6 nodes, degree of
   replication) — the horizontal-partitioning payoff of Sec. 3.1. *)
let granularity_comparison () =
  List.map
    (fun (name, granularity) ->
      let w =
        Cdbs_workloads.Timeseries.workload ~granularity
          ~rng:(Rng.create 11) ~n:3000
      in
      let alloc =
        Memetic.allocate ~rng:(Rng.create 3) w (Backend.homogeneous 6)
      in
      ( name,
        Allocation.scale alloc,
        Allocation.speedup alloc,
        Replication.degree alloc ))
    [ ("table", `Table); ("column", `Column); ("predicate", `Predicate) ]

(* Reactive day-1 vs forecast-driven day-2 autoscaling over the e-learning
   trace: (label, avg response s, worst window s, reallocations). *)
let predictive_scaling () =
  let days =
    Cdbs_autoscale.Autoscaler.simulate_days ~days:2 ~predictive:true
      ~rng:(Rng.create 5) ()
  in
  List.mapi
    (fun i (d : Cdbs_autoscale.Autoscaler.summary) ->
      ( (if i = 0 then "day 1 (reactive, learning)" else "day 2 (predictive)"),
        d.Cdbs_autoscale.Autoscaler.avg_response,
        d.Cdbs_autoscale.Autoscaler.max_response_window,
        d.Cdbs_autoscale.Autoscaler.reallocations ))
    days

let robustness_demo () =
  let workload = Tpch.workload ~granularity:`Table ~sf:1. in
  let alloc = Greedy.allocate workload (Backend.homogeneous 4) in
  let before = Robustness.is_robust alloc ~tolerance:0.05 in
  Robustness.harden alloc ~tolerance:0.05;
  let after = Robustness.is_robust alloc ~tolerance:0.05 in
  (before, after, Replication.degree alloc)

let print_all () =
  Common.header "Ablation: greedy vs memetic vs optimal (TPC-App, table)";
  List.iter
    (fun (n, entries) ->
      Fmt.pr "%d backends:@." n;
      List.iter
        (fun (name, scale, stored) ->
          Fmt.pr "  %-24s scale %.3f   stored %8.1f MB@." name scale stored)
        entries)
    (solver_comparison ());
  Common.header "Ablation: local-search strategies (TPC-App, column, 8 nodes)";
  List.iter
    (fun (name, scale, stored) ->
      Fmt.pr "  %-24s scale %.3f   stored %8.1f MB@." name scale stored)
    (local_search_contribution ());
  Common.header "Ablation: k-safety overhead (TPC-App, 6 nodes)";
  List.iter
    (fun (k, scale, degree, tp) ->
      Fmt.pr "  k=%d: scale %.3f, replication %.2f, throughput %.0f q/s@." k
        scale degree tp)
    (ksafety_overhead ());
  Common.header "Ablation: update propagation protocols (TPC-App, 8 nodes)";
  List.iter
    (fun (aname, pname, tp, resp) ->
      Fmt.pr "  %-7s %-13s throughput %8.0f q/s   avg response %7.2f ms@."
        aname pname tp (resp *. 1000.))
    (protocol_comparison ());
  Common.header "Ablation: failover after one backend loss (4 nodes)";
  List.iter
    (fun (b, safe, unsafe) ->
      Fmt.pr "  lose B%d: k=1 allocation survives: %b, k=0 survives: %b@." b
        safe unsafe)
    (failover ());
  Common.header
    "Ablation: classification granularity (time-partitioned archive, 6 \
     nodes)";
  List.iter
    (fun (name, scale, speedup, degree) ->
      Fmt.pr "  %-10s scale %.3f   speedup %.2f   replication %.2f@." name
        scale speedup degree)
    (granularity_comparison ());
  Common.header "Ablation: reactive vs predictive autoscaling";
  List.iter
    (fun (label, avg, worst, reallocs) ->
      Fmt.pr "  %-28s avg %6.1f ms   worst %7.1f ms   %d reallocations@."
        label (avg *. 1000.) (worst *. 1000.) reallocs)
    (predictive_scaling ());
  Common.header "Ablation: robustness hardening (TPC-H, 4 nodes)";
  let before, after, degree = robustness_demo () in
  Fmt.pr
    "  robust to 5%% shift before hardening: %b, after: %b (replication \
     %.2f)@."
    before after degree
