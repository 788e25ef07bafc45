(* Golden outcome digests of every simulator entry point.  Each case renders
   every field of its outcomes with %h (exact hex floats), including the
   per-request responses, the recoveries, the per-backend downtime and the
   per-class replica minima, and pins the MD5 of that rendering.  Fault-
   engine cases also fold in every trace event the run emits.  Any change
   to a simulated number, however small, fails its case. *)

open Cdbs_core
module Sim = Cdbs_cluster.Simulator
module Request = Cdbs_cluster.Request
module Protocol = Cdbs_cluster.Protocol
module Fault = Cdbs_faults.Fault
module Chaos = Cdbs_faults.Chaos
module Schedule = Cdbs_migration.Schedule
module Day = Cdbs_workloads.Trace
module Spec = Cdbs_workloads.Spec
module Tpcapp = Cdbs_workloads.Tpcapp
module Tr = Cdbs_telemetry.Trace
module Sink = Cdbs_telemetry.Sink
module Common = Cdbs_experiments.Common
module Fig_overload = Cdbs_experiments.Fig_overload
module Fig_migration = Cdbs_experiments.Fig_migration
module Autoscaler = Cdbs_autoscale.Autoscaler
module Tpch = Cdbs_workloads.Tpch
module Tpch_queries = Cdbs_workloads.Tpch_queries
module Rng = Cdbs_util.Rng

let floats b label a =
  Buffer.add_string b label;
  Array.iter (Printf.bprintf b " %h") a;
  Buffer.add_char b '\n'

let responses b rs =
  List.iter (fun (a, r) -> Printf.bprintf b "%h %h\n" a r) rs

let outcome b (o : Sim.outcome) =
  Printf.bprintf b
    "completed %d makespan %h throughput %h avg %h max %h p50 %h p95 %h \
     p99 %h errors %d\n"
    o.Sim.completed o.Sim.makespan o.Sim.throughput o.Sim.avg_response
    o.Sim.max_response o.Sim.p50_response o.Sim.p95_response
    o.Sim.p99_response o.Sim.errors;
  floats b "busy" o.Sim.busy;
  floats b "utilization" o.Sim.utilization

let fault_outcome b (fo : Sim.fault_outcome) =
  outcome b fo.Sim.run;
  Printf.bprintf b
    "offered %d availability %h retried %d retries %d aborted %d timeouts %d \
     shed %d shed_updates %d hedged %d hedge_wins %d trips %d wasted %h \
     offered_updates %d completed_updates %d cancelled %h catch_up %h \
     max_down %d events %d\n"
    fo.Sim.offered fo.Sim.availability fo.Sim.retried_requests
    fo.Sim.retries fo.Sim.aborted fo.Sim.timeouts fo.Sim.shed
    fo.Sim.shed_updates fo.Sim.hedged fo.Sim.hedge_wins fo.Sim.breaker_trips
    fo.Sim.wasted_work fo.Sim.offered_updates fo.Sim.completed_updates
    fo.Sim.cancelled_work fo.Sim.catch_up_mb fo.Sim.max_concurrent_down
    fo.Sim.events;
  List.iter
    (fun (r : Sim.recovery) ->
      Printf.bprintf b "recovery %d %h %h %h %h\n" r.Sim.rec_backend
        r.Sim.crashed_at r.Sim.recovered_at r.Sim.caught_up_at
        r.Sim.replayed_mb)
    fo.Sim.recoveries;
  floats b "downtime" fo.Sim.downtime;
  responses b fo.Sim.responses

let migration_outcome b (mo : Sim.migration_outcome) =
  outcome b mo.Sim.run;
  Printf.bprintf b "copied %h replayed %h copy_done %h drops_at %h deployed %b\n"
    mo.Sim.copied_mb mo.Sim.replayed_mb mo.Sim.copy_done mo.Sim.drops_at
    mo.Sim.target_deployed;
  List.iter
    (fun (c, m) -> Printf.bprintf b "min_live %s %d\n" c m)
    mo.Sim.min_live_replicas;
  responses b mo.Sim.responses

(* Every event a sink sees, attributes included, in emission order. *)
let record_trace b (sink : Sink.t) =
  ignore
    (Tr.subscribe sink.Sink.trace (fun (e : Tr.event) ->
         Printf.bprintf b "ev %h %s" e.Tr.at e.Tr.name;
         List.iter
           (fun (k, v) ->
             match v with
             | Tr.Int i -> Printf.bprintf b " %s=%d" k i
             | Tr.Float f -> Printf.bprintf b " %s=%h" k f
             | Tr.Str s -> Printf.bprintf b " %s=%S" k s
             | Tr.Bool x -> Printf.bprintf b " %s=%b" k x)
           e.Tr.attrs;
         Buffer.add_char b '\n'))

let pinned name expected render =
  Alcotest.test_case name `Quick (fun () ->
      let b = Buffer.create 65536 in
      render b;
      Alcotest.(check string)
        (name ^ " digest") expected
        (Digest.to_hex (Digest.string (Buffer.contents b))))

(* Paper Fig. 4(g)-style batch runs: TPC-App table allocations replayed
   under each update protocol (the async path included). *)
let batch b =
  let eb = 300 in
  let cost =
    {
      Cdbs_cluster.Cost_model.default with
      Cdbs_cluster.Cost_model.base_latency = 0.;
      scan_seconds_per_mb = 0.0117;
      sync_overhead = 0.03;
    }
  in
  let table_workload = Tpcapp.workload ~granularity:`Table ~eb in
  let column_workload = Tpcapp.workload ~granularity:`Column ~eb in
  List.iter
    (fun strategy ->
      let rng = Rng.create 53 in
      let alloc =
        Common.allocate ~rng strategy ~table_workload ~column_workload
          (Backend.homogeneous 4)
      in
      let reqs = Tpcapp.requests ~rng ~granularity:`Table ~eb ~n:4000 in
      List.iter
        (fun protocol -> outcome b (Common.simulate ~cost ~protocol alloc reqs))
        [ Protocol.Rowa; Protocol.Primary_copy;
          Protocol.Lazy { apply_factor = 0.3 } ])
    [ Common.Full_replication; Common.Table_based ]

(* The overload benchmark's set-up at a tenth of its duration. *)
let ov_nodes = 4

let ov_alloc () =
  Ksafety.allocate ~k:1 (Day.workload_at ~hour:14.)
    (Backend.homogeneous ov_nodes)

let ov_requests () =
  Fig_overload.requests ~seed:42 ~rate_per_s:300. ~duration:60.

let open_replay b =
  outcome b
    (Sim.run_open (Sim.homogeneous_config ov_nodes) (ov_alloc ())
       (ov_requests ()))

let overload_arms b =
  let alloc = ov_alloc () and requests = ov_requests () in
  (* The victim is the busiest backend of the clean replay, as in
     Fig_overload.compare_at. *)
  let probe = Sim.run_open (Sim.homogeneous_config ov_nodes) alloc requests in
  let victim = ref 0 in
  Array.iteri
    (fun i u -> if u > probe.Sim.utilization.(!victim) then victim := i)
    probe.Sim.utilization;
  List.iter
    (fun defended ->
      let sink = Sink.create ~capacity:16 () in
      record_trace b sink;
      let resilience =
        if defended then Fig_overload.defenses ~deadline_s:1.
        else Fig_overload.clients_only ~deadline_s:1.
      in
      let rng = if defended then Some (Rng.create 43) else None in
      fault_outcome b
        (Sim.run_open_with_faults ?rng ~resilience ~telemetry:sink
           (Sim.homogeneous_config ov_nodes)
           alloc requests
           ~faults:
             [ Fault.slowdown ~at:15. ~backend:!victim ~factor:3. ~duration:30. ]))
    [ false; true ]

(* Independent crashes and slowdowns plus correlated partitions and zone
   outages against a zone-aware k = 1 placement. *)
let chaos b =
  let n = 6 and zones = 3 and duration = 300. in
  let topology = Topology.uniform ~zones n in
  let alloc =
    Ksafety.allocate ~topology ~k:1 (Day.workload_at ~hour:14.)
      (Backend.homogeneous n)
  in
  let rng = Rng.create 5 in
  let faults =
    Chaos.generate ~rng ~num_backends:n
      {
        Chaos.default with
        Chaos.mtbf = 300.;
        horizon = duration;
        correlated_mtbf = Some 60.;
        partition_prob = 0.5;
        zones;
      }
  in
  let has p = List.exists (fun (t : Fault.timed) -> p t.Fault.event) faults in
  if
    not
      (has (function Fault.Partition _ -> true | _ -> false)
      && has (function Fault.ZoneOutage _ -> true | _ -> false))
  then Alcotest.fail "chaos schedule lacks a partition or a zone outage";
  let requests =
    List.map
      (fun (r : Request.t) ->
        { r with Request.arrival = Rng.float rng duration })
      (Spec.requests ~rng ~n:3000 (Day.specs_at ~hour:14.))
  in
  let sink = Sink.create ~capacity:16 () in
  record_trace b sink;
  fault_outcome b
    (Sim.run_open_with_faults ~rng:(Rng.create 6) ~telemetry:sink ~topology
       (Sim.homogeneous_config n) alloc requests ~faults)

(* The full defense stack (admission, breakers, hedges, deadlines) under
   crashes, partitions and slowdowns on a zone-aware k = 1 placement.  The
   run sheds, hedges, trips a breaker and cancels queued reads at a crash:
   the paths that walk a backend's in-flight bookings, whose order decides
   the shed victim, the hedged leg and the order retries are queued in. *)
let defended_chaos b =
  let n = 6 and zones = 3 and duration = 120. in
  let topology = Topology.uniform ~zones n in
  let alloc =
    Ksafety.allocate ~topology ~k:1 (Day.workload_at ~hour:14.)
      (Backend.homogeneous n)
  in
  let faults =
    Chaos.generate ~rng:(Rng.create 9) ~num_backends:n
      {
        Chaos.default with
        Chaos.mtbf = 60.;
        horizon = duration;
        slowdown_prob = 0.5;
        correlated_mtbf = Some 40.;
        partition_prob = 0.5;
        zones;
      }
  in
  let has p = List.exists (fun (t : Fault.timed) -> p t.Fault.event) faults in
  if
    not
      (has (function Fault.Crash _ -> true | _ -> false)
      && has (function Fault.Partition _ -> true | _ -> false)
      && has (function Fault.Slowdown _ -> true | _ -> false))
  then Alcotest.fail "chaos schedule lacks a crash, a partition or a slowdown";
  let requests = Fig_overload.requests ~seed:44 ~rate_per_s:350. ~duration in
  let sink = Sink.create ~capacity:16 () in
  record_trace b sink;
  (* Instants of crashes and of retries, to find reads a crash cancelled:
     their retries are scheduled at the crash instant itself. *)
  let crashed_at = Hashtbl.create 16 and retried_at = Hashtbl.create 64 in
  ignore
    (Tr.subscribe sink.Sink.trace (fun (e : Tr.event) ->
         match e.Tr.name with
         | "backend.crash" -> Hashtbl.replace crashed_at e.Tr.at ()
         | "request.retry" -> Hashtbl.replace retried_at e.Tr.at ()
         | _ -> ()));
  let fo =
    Sim.run_open_with_faults ~rng:(Rng.create 45)
      ~resilience:(Fig_overload.defenses ~deadline_s:1.)
      ~telemetry:sink ~topology (Sim.homogeneous_config n) alloc requests
      ~faults
  in
  let cancelled_at_crash =
    Hashtbl.fold (fun at () k -> k || Hashtbl.mem retried_at at) crashed_at
      false
  in
  if fo.Sim.shed = 0 then Alcotest.fail "the run shed nothing";
  if fo.Sim.hedged = 0 then Alcotest.fail "the run hedged nothing";
  if fo.Sim.breaker_trips = 0 then Alcotest.fail "no breaker tripped";
  if not cancelled_at_crash then
    Alcotest.fail "no crash cancelled a queued read";
  fault_outcome b fo

let migration_run b =
  let _, _, mo = Test_migration.migration_run () in
  migration_outcome b mo

(* Fig_migration.scenario at its defaults: its report, and the migration
   outcome of the same inputs run directly. *)
let fig_migration b =
  let r = Fig_migration.scenario () in
  List.iter
    (fun (p : Fig_migration.point) ->
      Printf.bprintf b "bucket %h %h %h %d %s\n" p.Fig_migration.t0
        p.Fig_migration.t1 p.Fig_migration.avg_ms p.Fig_migration.n
        p.Fig_migration.phase)
    r.Fig_migration.timeline;
  Printf.bprintf b
    "copy %h-%h copied %h rebuild %h replayed %h before %h during %h after \
     %h errors %d min_live %d deployed %b\n"
    r.Fig_migration.copy_start r.Fig_migration.copy_done
    r.Fig_migration.copied_mb r.Fig_migration.full_rebuild_mb
    r.Fig_migration.replayed_mb r.Fig_migration.before_ms
    r.Fig_migration.during_ms r.Fig_migration.after_ms r.Fig_migration.errors
    r.Fig_migration.min_live_replicas r.Fig_migration.target_deployed;
  let rng = Rng.create 11 in
  let target =
    Greedy.allocate (Day.workload_at ~hour:14.) (Backend.homogeneous 4)
  in
  let plan = Fig_migration.plan () in
  let schedule = Schedule.make ~start:150. ~bandwidth:2. plan in
  let requests =
    List.map
      (fun (r : Request.t) -> { r with Request.arrival = Rng.float rng 600. })
      (Spec.requests ~rng ~n:24000 (Day.specs_at ~hour:14.))
  in
  migration_outcome b
    (Sim.run_open_with_migration
       (Sim.homogeneous_config plan.Cdbs_migration.Planner.num_physical)
       ~target ~schedule requests)

(* One live-deployment day at a tenth of the paper's trace scale: one
   scale decision is deployed by a rebalance while serving. *)
let live_day b =
  let days =
    Autoscaler.simulate_days ~days:1 ~live:true ~bandwidth_mb_s:10. ~scale:4.
      ~rng:(Rng.create 5) ()
  in
  List.iter
    (fun (s : Autoscaler.summary) ->
      List.iter
        (fun (w : Autoscaler.window_report) ->
          Printf.bprintf b "window %h %h %d %h %h %h %b\n" w.Autoscaler.hour
            w.Autoscaler.rate w.Autoscaler.nodes
            w.Autoscaler.avg_response_scaled w.Autoscaler.avg_response_static
            w.Autoscaler.transfer_mb w.Autoscaler.migrating)
        s.Autoscaler.windows;
      Printf.bprintf b "day %h %h %d %h\n" s.Autoscaler.avg_response
        s.Autoscaler.max_response_window s.Autoscaler.reallocations
        s.Autoscaler.total_transfer_mb)
    days

(* Allocator placements: every assignment, each backend's fragment names
   in sorted order, the scale and the total stored size. *)
let placement b label (a : Allocation.t) =
  Printf.bprintf b "%s scale %h stored %h\n" label (Allocation.scale a)
    (Allocation.total_stored a);
  Array.iteri
    (fun bk _ ->
      Array.iter
        (fun c -> Printf.bprintf b " %h" (Allocation.get_assign a bk c))
        (Allocation.classes a);
      Buffer.add_char b '\n';
      List.iter (Printf.bprintf b " %s")
        (List.sort String.compare
           (List.map Fragment.name
              (Fragment.Set.elements (Allocation.fragments_of a bk))));
      Buffer.add_char b '\n')
    (Allocation.backends a)

(* Greedy, memetic under each local-search mode, one local-search pass
   over the greedy seed, and k = 1 safety with and without two zones, all
   on four backends. *)
let allocators workload b =
  let n = 4 in
  let backends = Backend.homogeneous n in
  placement b "greedy" (Greedy.allocate workload backends);
  List.iter
    (fun (label, mode) ->
      let params =
        {
          Memetic.default_params with
          Memetic.iterations = 20;
          local_search_mode = mode;
        }
      in
      placement b label
        (Memetic.allocate ~params ~rng:(Rng.create 17) workload backends))
    [
      ("memetic none", Memetic.No_local_search);
      ("memetic consolidate", Memetic.Consolidate_only);
      ("memetic both", Memetic.Both_strategies);
    ];
  let seed = Greedy.allocate workload backends in
  Printf.bprintf b "local_search %b\n" (Memetic.local_search seed);
  placement b "local_search" seed;
  placement b "ksafety" (Ksafety.allocate ~k:1 workload backends);
  placement b "ksafety zones"
    (Ksafety.allocate ~topology:(Topology.uniform ~zones:2 n) ~k:1 workload
       backends)

(* The shape the sql benchmark reallocates: a TPC-H journal plus point
   UPDATEs on five tables, classified by table. *)
let tpch_journal_workload () =
  let sf = 0.001 in
  let rng = Rng.create 42 in
  let journal = Tpch_queries.journal ~rng ~n:70 ~sf in
  let write i key =
    match i mod 5 with
    | 0 ->
        Printf.sprintf
          "UPDATE customer SET c_acctbal = c_acctbal + 1.5 WHERE c_custkey = %d"
          key
    | 1 ->
        Printf.sprintf
          "UPDATE part SET p_retailprice = 10.25 WHERE p_partkey = %d" key
    | 2 ->
        Printf.sprintf
          "UPDATE supplier SET s_acctbal = s_acctbal - 2.0 WHERE s_suppkey = %d"
          key
    | 3 ->
        Printf.sprintf
          "UPDATE partsupp SET ps_availqty = ps_availqty - 1 WHERE ps_partkey \
           = %d"
          key
    | _ ->
        Printf.sprintf
          "UPDATE orders SET o_totalprice = 99.5 WHERE o_orderkey = %d" key
  in
  for i = 0 to 29 do
    Journal.record journal
      ~sql:(write i (1 + Rng.int rng 100))
      ~cost:(0.001 *. float_of_int (1 + (i mod 3)))
  done;
  let size_of =
    Classification.default_sizes ~schema:Tpch.schema
      ~rows:(Tpch.row_counts ~sf)
  in
  Classification.classify ~schema:Tpch.schema ~size_of
    Classification.By_table journal

let suite =
  [
    pinned "run_batch: TPC-App allocations under each protocol"
      "070d73a605e8380268baa5e3aef02894" batch;
    pinned "run_open: overload requests"
      "38316df21a1e4b5501c7039696149904" open_replay;
    pinned "run_open_with_migration: two-fragment rebalance"
      "fd42e82a752ffa6d361e069eac9800ca" migration_run;
    pinned "run_open_with_migration: Fig_migration scenario"
      "a3aa60f909a8d538801de1fe4b79f715" fig_migration;
    pinned "Autoscaler.simulate_days: one live day"
      "c6469abbb8ab6d6833bfcf7ef55b303b" live_day;
    pinned "run_open_with_faults: chaos with zones and partitions"
      "d8bb8ae4b50e7d4e397d3a5197a08bf7" chaos;
    pinned "run_open_with_faults: overload arms"
      "67c89057c6206f71173076490bbd89ad" overload_arms;
    pinned "allocators: TPC-App table classes"
      "dba54678d4ce8f4a7430344956f46cef"
      (allocators (Tpcapp.workload ~granularity:`Table ~eb:300));
    pinned "allocators: TPC-App column classes"
      "50407cca2e72cf9fecbd76fbe22ae229"
      (allocators (Tpcapp.workload ~granularity:`Column ~eb:300));
    pinned "allocators: TPC-H by table"
      "a65c6f83dbeed9e4e2f22c7d76cb6067"
      (allocators (Tpch.workload ~granularity:`Table ~sf:1.));
    pinned "allocators: TPC-H by column"
      "0636c0c8abe6cdebdde9e7a3621997d4"
      (allocators (Tpch.workload ~granularity:`Column ~sf:1.));
    pinned "allocators: e-learning trace at 14:00"
      "5a3ec7b08b841ee895752c337be1ebf1"
      (allocators (Day.workload_at ~hour:14.));
    pinned "allocators: TPC-H journal with point updates by table"
      "0046cba00f189ce240b3e0e00eb97b78"
      (fun b -> allocators (tpch_journal_workload ()) b);
    pinned "run_open_with_faults: defenses under chaos"
      "0445d3877cbd4767cfa05dca5bfa52ca" defended_chaos;
  ]
