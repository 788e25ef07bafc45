module Allocation = Cdbs_core.Allocation
module Workload = Cdbs_core.Workload
module Greedy = Cdbs_core.Greedy
module Memetic = Cdbs_core.Memetic
module Query_class = Cdbs_core.Query_class
module Simulator = Cdbs_cluster.Simulator

(* Every experiment run self-verifies: loading this harness installs the
   full static checker behind Cdbs_core.Invariants, so each allocation an
   algorithm emits (and each migration plan the controller builds) is
   verified before the figures use it. *)
let () = Cdbs_analysis.Debug.install ()

type strategy =
  | Full_replication
  | Table_based
  | Column_based
  | Random_placement

let strategy_name = function
  | Full_replication -> "full"
  | Table_based -> "table"
  | Column_based -> "column"
  | Random_placement -> "random"

let full_replication = Cdbs_core.Baselines.full_replication

let memetic_params =
  { Memetic.default_params with Memetic.iterations = 30; population = 8 }

let allocate ~rng strategy ~table_workload ~column_workload backends =
  let alloc =
    match strategy with
    | Full_replication -> full_replication table_workload backends
    | Table_based ->
        Memetic.improve ~params:memetic_params ~rng
          (Greedy.allocate table_workload backends)
    | Column_based ->
        Memetic.improve ~params:memetic_params ~rng
          (Greedy.allocate column_workload backends)
    | Random_placement ->
        Cdbs_core.Baselines.random_placement ~rng column_workload backends
  in
  Cdbs_core.Invariants.check_allocation
    ~context:("Common.allocate " ^ strategy_name strategy)
    alloc;
  alloc

let checked_alloc ?topology ~context ~k alloc =
  if Cdbs_core.Invariants.active () then
    Cdbs_analysis.Check_allocation.check_exn ~k ?topology ~context alloc;
  alloc

let simulate ?(cost = Cdbs_cluster.Cost_model.default)
    ?(protocol = Cdbs_cluster.Protocol.default) alloc requests =
  let n = Allocation.num_backends alloc in
  let config = { Simulator.cost; speeds = Array.make n 1.; protocol } in
  Simulator.run_batch config alloc requests

(* Tail latency via the telemetry histogram (2.6 % bucket width at the
   default resolution) instead of a full sort of the response list. *)
let p99_of responses =
  let h = Cdbs_telemetry.Histogram.create () in
  List.iter (fun (_, r) -> Cdbs_telemetry.Histogram.record h r) responses;
  Cdbs_telemetry.Histogram.percentile h 99.

type point = { t0 : float; t1 : float; avg_ms : float; n : int; phase : string }

let timeline ~duration ~buckets ~phase_of responses =
  let width = duration /. float_of_int buckets in
  let sums = Array.make buckets 0. and counts = Array.make buckets 0 in
  List.iter
    (fun (arrival, response) ->
      let b = min (buckets - 1) (int_of_float (arrival /. width)) in
      sums.(b) <- sums.(b) +. response;
      counts.(b) <- counts.(b) + 1)
    responses;
  List.init buckets (fun b ->
      let t0 = float_of_int b *. width in
      {
        t0;
        t1 = t0 +. width;
        avg_ms =
          (if counts.(b) > 0 then 1000. *. sums.(b) /. float_of_int counts.(b)
           else 0.);
        n = counts.(b);
        phase = phase_of (t0 +. (width /. 2.));
      })

let header title =
  Fmt.pr "@.=== %s ===@." title

let table ~columns rows =
  let width = 12 in
  Fmt.pr "%-28s" "";
  List.iter (fun c -> Fmt.pr "%*s" width c) columns;
  Fmt.pr "@.";
  List.iter
    (fun (label, values) ->
      Fmt.pr "%-28s" label;
      List.iter (fun v -> Fmt.pr "%*.3f" width v) values;
      Fmt.pr "@.")
    rows

let mean_of_runs f ~runs =
  let total = ref 0. in
  for seed = 1 to runs do
    total := !total +. f seed
  done;
  !total /. float_of_int runs
