module Tpcapp = Cdbs_workloads.Tpcapp
module Backend = Cdbs_core.Backend
module Speedup = Cdbs_core.Speedup
module Simulator = Cdbs_cluster.Simulator
module Rng = Cdbs_util.Rng

let default_counts = [ 1; 2; 4; 6; 8; 10 ]
let eb = 300

(* TPC-App requests are small web-service interactions whose entire cost is
   proportional to the data they touch (request_mb), so the fixed
   per-request overhead is folded into the scan rate; calibrated to the
   paper's ≈900 queries/s on a single node (Fig. 4(g)).  The ROWA sync
   overhead is what caps full replication near the paper's 2.6. *)
let cost =
  {
    Cdbs_cluster.Cost_model.default with
    Cdbs_cluster.Cost_model.base_latency = 0.;
    scan_seconds_per_mb = 0.0117;
    sync_overhead = 0.03;
  }

let throughput_of ~rng ~requests strategy n =
  let backends = Backend.homogeneous n in
  let table_workload = Tpcapp.workload ~granularity:`Table ~eb in
  let column_workload = Tpcapp.workload ~granularity:`Column ~eb in
  let alloc =
    Common.allocate ~rng strategy ~table_workload ~column_workload backends
  in
  let granularity =
    match strategy with Common.Column_based -> `Column | _ -> `Table
  in
  let reqs = Tpcapp.requests ~rng ~granularity ~eb ~n:requests in
  (Common.simulate ~cost alloc reqs).Simulator.throughput

let fig4f_4g () =
  let requests = 8000 and runs = 3 in
  List.map
    (fun strategy ->
      (* Baseline: a single node processing the same request stream. *)
      let base =
        Common.mean_of_runs ~runs (fun seed ->
            throughput_of ~rng:(Rng.create seed) ~requests strategy 1)
      in
      ( strategy,
        List.map
          (fun n ->
            let tp =
              Common.mean_of_runs ~runs (fun seed ->
                  throughput_of
                    ~rng:(Rng.create (seed * 53))
                    ~requests strategy n)
            in
            (n, tp, tp /. base))
          default_counts ))
    [ Common.Full_replication; Common.Table_based; Common.Column_based ]

(* Column-based throughput deviation: (backends, avg, min, max). *)
let fig4h () =
  let requests = 8000 and runs = 10 in
  List.map
    (fun n ->
      let samples =
        List.init runs (fun seed ->
            throughput_of
              ~rng:(Rng.create ((seed + 1) * 211))
              ~requests Common.Column_based n)
      in
      ( n,
        Cdbs_util.Stats.mean samples,
        Cdbs_util.Stats.minimum samples,
        Cdbs_util.Stats.maximum samples ))
    default_counts

(* Large-scale (EB = 12000) relative throughput for 1/5/10 backends per
   strategy. *)
let fig4i () =
  let eb = 12_000 and requests = 4000 in
  let table_workload = Tpcapp.workload_large_scale ~granularity:`Table ~eb in
  let column_workload = Tpcapp.workload_large_scale ~granularity:`Column ~eb in
  let run strategy n =
    let rng = Rng.create (n * 17) in
    let backends = Backend.homogeneous n in
    let alloc =
      Common.allocate ~rng strategy ~table_workload ~column_workload backends
    in
    let reqs = Tpcapp.requests_large_scale ~rng ~eb ~n:requests in
    (Common.simulate ~cost alloc reqs).Simulator.throughput
  in
  List.map
    (fun strategy ->
      let base = run strategy 1 in
      ( Common.strategy_name strategy,
        List.map (fun n -> run strategy n /. base) [ 1; 5; 10 ] ))
    [ Common.Full_replication; Common.Table_based; Common.Column_based ]

let theoretical () =
  [
    ( "Eq. 29: full replication cap (10 nodes)",
      Speedup.full_replication ~nodes:10
        ~update_weight:Tpcapp.update_weight );
    (* Order_Line writes are 13% of the weight; pinned exclusively to one
       backend of ten, that backend runs at 0.13 / 0.1 = 1.3 of its fair
       share. *)
    ( "Eq. 30: partial allocation cap (10 nodes)",
      Speedup.of_scale ~nodes:10
        ~scale:(Tpcapp.order_line_weight /. 0.1) );
  ]

let print_all () =
  Common.header "Fig 4(f)/(g): TPC-App speedup and throughput";
  let data = fig4f_4g () in
  Common.table
    ~columns:
      (List.map (fun (n, _, _) -> string_of_int n) (snd (List.hd data)))
    (List.concat_map
       (fun (strategy, rows) ->
         [
           ( Common.strategy_name strategy ^ " (q/s)",
             List.map (fun (_, tp, _) -> tp) rows );
           ( Common.strategy_name strategy ^ " (speedup)",
             List.map (fun (_, _, s) -> s) rows );
         ])
       data);
  List.iter
    (fun (label, v) -> Fmt.pr "%-44s%8.2f@." label v)
    (theoretical ());
  Common.header "Fig 4(h): TPC-App column-based throughput deviation";
  let dev = fig4h () in
  Common.table
    ~columns:(List.map (fun (n, _, _, _) -> string_of_int n) dev)
    [
      ("average", List.map (fun (_, a, _, _) -> a) dev);
      ("minimum", List.map (fun (_, _, m, _) -> m) dev);
      ("maximum", List.map (fun (_, _, _, m) -> m) dev);
    ];
  Common.header "Fig 4(i): TPC-App large scale (relative throughput)";
  Common.table ~columns:[ "1"; "5"; "10" ] (fig4i ())
