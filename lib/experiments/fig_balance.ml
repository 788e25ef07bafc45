module Tpch = Cdbs_workloads.Tpch
module Tpcapp = Cdbs_workloads.Tpcapp
module Backend = Cdbs_core.Backend
module Replication = Cdbs_core.Replication
module Simulator = Cdbs_cluster.Simulator
module Rng = Cdbs_util.Rng

let sf = 1.
let eb = 300

let tpch_alloc ~rng n =
  Common.allocate ~rng Common.Column_based
    ~table_workload:(Tpch.workload ~granularity:`Table ~sf)
    ~column_workload:(Tpch.workload ~granularity:`Column ~sf)
    (Backend.homogeneous n)

let tpcapp_alloc ~rng ~granularity n =
  let table_workload = Tpcapp.workload ~granularity:`Table ~eb in
  let column_workload = Tpcapp.workload ~granularity:`Column ~eb in
  let strategy =
    match granularity with
    | `Table -> Common.Table_based
    | `Column -> Common.Column_based
  in
  Common.allocate ~rng strategy ~table_workload ~column_workload
    (Backend.homogeneous n)

let busy_deviation alloc requests ~cost =
  let outcome = Common.simulate ~cost alloc requests in
  Cdbs_util.Stats.relative_deviation
    (Array.to_list outcome.Simulator.busy)

let runs = 5
let nodes = 10

let fig4j () =
  let app_cost =
    {
      Cdbs_cluster.Cost_model.default with
      Cdbs_cluster.Cost_model.base_latency = 0.;
      scan_seconds_per_mb = 0.0117;
      sync_overhead = 0.03;
    }
  in
  List.map
    (fun n ->
      let h =
        Common.mean_of_runs ~runs (fun seed ->
            let rng = Rng.create (seed * 61) in
            let alloc = tpch_alloc ~rng n in
            busy_deviation alloc
              (Tpch.requests ~rng ~sf ~n:1500)
              ~cost:Cdbs_cluster.Cost_model.default)
      in
      let a =
        Common.mean_of_runs ~runs (fun seed ->
            let rng = Rng.create (seed * 71) in
            let alloc = tpcapp_alloc ~rng ~granularity:`Column n in
            busy_deviation alloc
              (Tpcapp.requests ~rng ~granularity:`Column ~eb ~n:6000)
              ~cost:app_cost)
      in
      (n, h, a))
    (List.init nodes (fun i -> i + 1))

let histogram alloc_of =
  let acc = Array.make nodes 0. in
  for seed = 1 to runs do
    let alloc = alloc_of ~rng:(Rng.create (seed * 97)) nodes in
    let h = Replication.histogram alloc ~max_replicas:nodes in
    Array.iteri (fun idx v -> acc.(idx) <- acc.(idx) +. float_of_int v) h
  done;
  Array.map (fun v -> v /. float_of_int runs) acc

let fig4k () =
  let tpch =
    histogram (fun ~rng n ->
        Common.allocate ~rng Common.Table_based
          ~table_workload:(Tpch.workload ~granularity:`Table ~sf)
          ~column_workload:(Tpch.workload ~granularity:`Column ~sf)
          (Backend.homogeneous n))
  in
  let app =
    histogram (fun ~rng n ->
        tpcapp_alloc ~rng ~granularity:`Table n)
  in
  List.init nodes (fun idx -> (idx + 1, tpch.(idx), app.(idx)))

(* Column-based replication histogram (fragments are columns). *)
let fig4l () =
  let tpch = histogram tpch_alloc in
  let app =
    histogram (fun ~rng n ->
        tpcapp_alloc ~rng ~granularity:`Column n)
  in
  List.init nodes (fun idx -> (idx + 1, tpch.(idx), app.(idx)))

let print_all () =
  Common.header "Fig 4(j): deviation from balance (column-based)";
  let dev = fig4j () in
  Common.table
    ~columns:(List.map (fun (n, _, _) -> string_of_int n) dev)
    [
      ("TPC-H", List.map (fun (_, h, _) -> h) dev);
      ("TPC-App", List.map (fun (_, _, a) -> a) dev);
    ];
  Common.header "Fig 4(k): replication histogram, table-based (10 nodes)";
  let k = fig4k () in
  Common.table
    ~columns:(List.map (fun (r, _, _) -> string_of_int r) k)
    [
      ("TPC-H tables", List.map (fun (_, h, _) -> h) k);
      ("TPC-App tables", List.map (fun (_, _, a) -> a) k);
    ];
  Common.header "Fig 4(l): replication histogram, column-based (10 nodes)";
  let l = fig4l () in
  Common.table
    ~columns:(List.map (fun (r, _, _) -> string_of_int r) l)
    [
      ("TPC-H columns", List.map (fun (_, h, _) -> h) l);
      ("TPC-App columns", List.map (fun (_, _, a) -> a) l);
    ]
