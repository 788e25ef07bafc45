module Tpch = Cdbs_workloads.Tpch
module Backend = Cdbs_core.Backend
module Allocation = Cdbs_core.Allocation
module Replication = Cdbs_core.Replication
module Optimal = Cdbs_core.Optimal
module Greedy = Cdbs_core.Greedy
module Physical = Cdbs_core.Physical
module Fragment = Cdbs_core.Fragment
module Simulator = Cdbs_cluster.Simulator
module Rng = Cdbs_util.Rng

type row = {
  backends : int;
  throughput : float;
  speedup : float;
}

let default_counts = [ 1; 2; 4; 6; 8; 10 ]
let sf = 1.

let throughput_of ~rng ~requests strategy n =
  let backends = Backend.homogeneous n in
  let table_workload = Tpch.workload ~granularity:`Table ~sf in
  let column_workload = Tpch.workload ~granularity:`Column ~sf in
  let alloc =
    Common.allocate ~rng strategy ~table_workload ~column_workload backends
  in
  let reqs = Tpch.requests ~rng ~sf ~n:requests in
  (Common.simulate alloc reqs).Simulator.throughput

let baseline ~requests ~runs =
  Common.mean_of_runs ~runs (fun seed ->
      throughput_of ~rng:(Rng.create seed) ~requests Common.Full_replication 1)

let fig4a () =
  let requests = 2000 and runs = 3 in
  let base = baseline ~requests ~runs in
  List.map
    (fun strategy ->
      ( strategy,
        List.map
          (fun n ->
            let tp =
              Common.mean_of_runs ~runs (fun seed ->
                  throughput_of ~rng:(Rng.create (seed * 37)) ~requests
                    strategy n)
            in
            { backends = n; throughput = tp; speedup = tp /. base })
          default_counts ))
    [
      Common.Full_replication; Common.Table_based; Common.Column_based;
      Common.Random_placement;
    ]

(* Column-based allocation deviation: per backend count, (average,
   minimum, maximum) throughput over the runs. *)
let fig4b () =
  let requests = 2000 and runs = 10 in
  List.map
    (fun n ->
      let samples =
        List.init runs (fun seed ->
            throughput_of
              ~rng:(Rng.create ((seed + 1) * 101))
              ~requests Common.Column_based n)
      in
      ( n,
        Cdbs_util.Stats.mean samples,
        Cdbs_util.Stats.minimum samples,
        Cdbs_util.Stats.maximum samples ))
    default_counts

let fig4c () =
  let table_workload = Tpch.workload ~granularity:`Table ~sf in
  let column_workload = Tpch.workload ~granularity:`Column ~sf in
  List.map
    (fun n ->
      let rng = Rng.create 7 in
      let backends = Backend.homogeneous n in
      let full =
        Replication.degree (Common.full_replication table_workload backends)
      in
      let table_deg =
        Replication.degree
          (Common.allocate ~rng Common.Table_based ~table_workload
             ~column_workload backends)
      in
      let column_deg =
        Replication.degree
          (Common.allocate ~rng Common.Column_based ~table_workload
             ~column_workload backends)
      in
      (n, full, table_deg, column_deg))
    default_counts

(* The MIP's column-based degree on up to 7 backends, NaN beyond or where
   it fails.  Its 4000-node budget runs out before it proves a solve
   optimal, so the degree is the best it found. *)
let mip_degree n =
  if n > 7 then Float.nan
  else
    (* Merge identically-accessed columns to shrink the MIP, as the
       paper's solver setup effectively does via preprocessing. *)
    let coarse = Optimal.coarsen (Tpch.workload ~granularity:`Column ~sf) in
    match Optimal.allocate ~node_limit:4000 coarse (Backend.homogeneous n) with
    | Ok r -> Replication.degree r.Optimal.allocation
    | Error _ -> Float.nan

let fig4d () =
  let table_workload = Tpch.workload ~granularity:`Table ~sf in
  let column_workload = Tpch.workload ~granularity:`Column ~sf in
  List.map
    (fun n ->
      let rng = Rng.create 11 in
      let backends = Backend.homogeneous n in
      let empty = List.init n (fun _ -> Fragment.Set.empty) in
      let duration alloc ~fragmentation =
        let plan = Physical.plan_scaled ~old_fragments:empty alloc in
        Physical.duration plan ~fragmentation /. 60.
      in
      let full = Common.full_replication table_workload backends in
      let column =
        Common.allocate ~rng Common.Column_based ~table_workload
          ~column_workload backends
      in
      (* Full replication ships whole tables (no fragment preparation);
         column-based must first cut the fragments it ships. *)
      let full_min = duration full ~fragmentation:0. in
      let column_min =
        duration column ~fragmentation:(Allocation.total_stored column)
      in
      (n, full_min, column_min))
    [ 1; 2; 3; 4; 5; 6; 7 ]

(* Relative throughput of 1/5/10 backends for SF1 and SF10 under each
   strategy (baseline: 1 node at the same scale factor). *)
let fig4e () =
  let counts = [ 1; 5; 10 ] in
  let strategies =
    [ Common.Full_replication; Common.Table_based; Common.Column_based ]
  in
  let run ~sf strategy n =
    let rng = Rng.create (n + (7 * int_of_float sf)) in
    let backends = Backend.homogeneous n in
    let table_workload = Tpch.workload ~granularity:`Table ~sf in
    let column_workload = Tpch.workload ~granularity:`Column ~sf in
    let alloc =
      Common.allocate ~rng strategy ~table_workload ~column_workload backends
    in
    let reqs = Tpch.requests ~rng ~sf ~n:600 in
    (Common.simulate alloc reqs).Simulator.throughput
  in
  List.concat_map
    (fun sf ->
      let base = run ~sf Common.Full_replication 1 in
      List.map
        (fun strategy ->
          ( Printf.sprintf "%s SF%d" (Common.strategy_name strategy)
              (int_of_float sf),
            List.map (fun n -> run ~sf strategy n /. base) counts ))
        strategies)
    [ 1.; 10. ]

let print_all () =
  Common.header "Fig 4(a): TPC-H throughput (queries/sec) and speedup";
  let data = fig4a () in
  Common.table
    ~columns:(List.map (fun r -> string_of_int r.backends) (snd (List.hd data)))
    (List.concat_map
       (fun (strategy, rows) ->
         [
           ( Common.strategy_name strategy ^ " (q/s)",
             List.map (fun r -> r.throughput) rows );
           ( Common.strategy_name strategy ^ " (speedup)",
             List.map (fun r -> r.speedup) rows );
         ])
       data);
  Common.header "Fig 4(b): TPC-H column-based throughput deviation";
  let dev = fig4b () in
  Common.table
    ~columns:(List.map (fun (n, _, _, _) -> string_of_int n) dev)
    [
      ("average", List.map (fun (_, a, _, _) -> a) dev);
      ("minimum", List.map (fun (_, _, m, _) -> m) dev);
      ("maximum", List.map (fun (_, _, _, m) -> m) dev);
    ];
  Common.header "Fig 4(c): TPC-H degree of replication";
  let deg = fig4c () in
  Common.table
    ~columns:(List.map (fun (n, _, _, _) -> string_of_int n) deg)
    [
      ("full replication", List.map (fun (_, f, _, _) -> f) deg);
      ("table-based", List.map (fun (_, _, t, _) -> t) deg);
      ("column-based", List.map (fun (_, _, _, c) -> c) deg);
      ( "column-based MIP, best found",
        List.map (fun (n, _, _, _) -> mip_degree n) deg );
    ];
  Common.header "Fig 4(d): allocation duration (minutes)";
  let dur = fig4d () in
  Common.table
    ~columns:(List.map (fun (n, _, _) -> string_of_int n) dur)
    [
      ("full replication", List.map (fun (_, f, _) -> f) dur);
      ("column-based", List.map (fun (_, _, c) -> c) dur);
    ];
  Common.header "Fig 4(e): TPC-H scaling (relative throughput, 1/5/10 nodes)";
  Common.table ~columns:[ "1"; "5"; "10" ] (fig4e ())
