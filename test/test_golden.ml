(* Golden outcome digests of every simulator entry point, and of the SQL
   path: executor results on linked TPC-H data and a controller stream's
   results, journal costs and placement.  Each simulator case renders
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
module Fig_day = Cdbs_experiments.Fig_day
module Fig_drift = Cdbs_experiments.Fig_drift
module Slo = Cdbs_telemetry.Slo_report
module Monitor = Cdbs_analysis.Monitor
module Diagnostic = Cdbs_analysis.Diagnostic
module Loop = Cdbs_control.Loop
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
    o.Sim.max_response
    (Lazy.force o.Sim.p50_response)
    (Lazy.force o.Sim.p95_response)
    (Lazy.force o.Sim.p99_response)
    o.Sim.errors;
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

let event b (e : Tr.event) =
  Printf.bprintf b "ev %h %s" (Tr.at e) (Tr.name e);
  List.iter
    (fun (k, v) ->
      match v with
      | Tr.Int i -> Printf.bprintf b " %s=%d" k i
      | Tr.Float f -> Printf.bprintf b " %s=%h" k f
      | Tr.Str s -> Printf.bprintf b " %s=%S" k s
      | Tr.Bool x -> Printf.bprintf b " %s=%b" k x)
    (Tr.attrs e);
  Buffer.add_char b '\n'

(* Every event a sink sees, attributes included, in emission order. *)
let record_trace b (sink : Sink.t) =
  ignore (Tr.subscribe sink.Sink.trace (event b))

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
    (Tr.subscribe sink.Sink.trace (function
      | Tr.Backend_crash { at; _ } -> Hashtbl.replace crashed_at at ()
      | Tr.Request_retry { at; _ } -> Hashtbl.replace retried_at at ()
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
    (fun p ->
      Printf.bprintf b "bucket %h %h %h %d %s\n" p.Common.t0 p.Common.t1
        p.Common.avg_ms p.Common.n p.Common.phase)
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

(* Allocator placements: every assignment, each backend's fragment names
   in sorted order, the scale and the total stored size.  Numbers are exact
   ([%h]) unless [digits] rounds them to that many significant digits. *)
let placement ?digits b label (a : Allocation.t) =
  let num x =
    match digits with
    | None -> Printf.sprintf "%h" x
    | Some d -> Printf.sprintf "%.*g" d x
  in
  Printf.bprintf b "%s scale %s stored %s\n" label
    (num (Allocation.scale a))
    (num (Allocation.total_stored a));
  Array.iteri
    (fun bk _ ->
      Array.iter
        (fun c -> Printf.bprintf b " %s" (num (Allocation.get_assign a bk c)))
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
  let searched, improved =
    Memetic.local_search (Greedy.allocate workload backends)
  in
  Printf.bprintf b "local_search %b\n" improved;
  placement b "local_search" searched;
  placement b "ksafety" (Ksafety.allocate ~k:1 workload backends);
  placement b "ksafety zones"
    (Ksafety.allocate ~topology:(Topology.uniform ~zones:2 n) ~k:1 workload
       backends)

(* Greedy placements on the shipped workloads: TPC-App and TPC-H, each by
   table and by column, and the trace at every half hour, each on 1-16
   backends, homogeneous and with capacities 1, 2, 3 repeating (1,664
   placements).  Numbers are rounded to 12 significant digits, so the
   fragment sets and shares are pinned but not the rounding of their last
   bits. *)
let greedy_sweep b =
  let workloads =
    [
      ("tpcapp table", Tpcapp.workload ~granularity:`Table ~eb:300);
      ("tpcapp column", Tpcapp.workload ~granularity:`Column ~eb:300);
      ("tpch table", Tpch.workload ~granularity:`Table ~sf:1.);
      ("tpch column", Tpch.workload ~granularity:`Column ~sf:1.);
    ]
    @ List.init 48 (fun i ->
          let hour = float_of_int i /. 2. in
          (Printf.sprintf "trace %g" hour, Day.workload_at ~hour))
  in
  List.iter
    (fun (wl, w) ->
      for n = 1 to 16 do
        List.iter
          (fun (kind, backends) ->
            placement ~digits:12 b
              (Printf.sprintf "%s n=%d %s" wl n kind)
              (Greedy.allocate w backends))
          [
            ("homogeneous", Backend.homogeneous n);
            ( "capacities 1,2,3",
              Backend.heterogeneous
                (List.init n (fun i -> float_of_int (1 + (i mod 3)))) );
          ]
      done)
    workloads

(* K-safe placements and their repairs on the shipped workloads: TPC-App
   and TPC-H by table and by column and the trace at four hours, on
   2-16 backends, homogeneous and with capacities 1, 2, 3 repeating, for
   k = 1 and 2, with no topology and with 2 and 3 uniform zones.  Each
   placement is followed by its repair, on a copy, after losing backend
   0, the last backend, and backends 0 and 1: the repaired placement and
   the fragments each backend gained.  "raise" marks an
   [Invalid_argument]. *)
let ksafety_sweep b =
  let workloads =
    [
      ("tpcapp table", Tpcapp.workload ~granularity:`Table ~eb:300);
      ("tpcapp column", Tpcapp.workload ~granularity:`Column ~eb:300);
      ("tpch table", Tpch.workload ~granularity:`Table ~sf:1.);
      ("tpch column", Tpch.workload ~granularity:`Column ~sf:1.);
    ]
    @ List.map
        (fun hour -> (Printf.sprintf "trace %g" hour, Day.workload_at ~hour))
        [ 3.; 9.5; 14.; 20.5 ]
  in
  let attempt label f =
    match f () with
    | x -> Some x
    | exception Invalid_argument _ ->
        Printf.bprintf b "%s raise\n" label;
        None
  in
  List.iter
    (fun (wl, w) ->
      List.iter
        (fun n ->
          List.iter
            (fun (kind, backends) ->
              List.iter
                (fun zones ->
                  List.iter
                    (fun k ->
                      let label =
                        Printf.sprintf "%s n=%d %s zones=%d k=%d" wl n kind
                          zones k
                      in
                      let topology =
                        if zones = 0 then None
                        else Some (Topology.uniform ~zones n)
                      in
                      match
                        attempt label (fun () ->
                            Ksafety.allocate ?topology ~k w backends)
                      with
                      | None -> ()
                      | Some a ->
                          placement b label a;
                          List.iter
                            (fun failed ->
                              let label =
                                Printf.sprintf "%s repair [%s]" label
                                  (String.concat ";"
                                     (List.map string_of_int failed))
                              in
                              let r = Allocation.copy a in
                              match
                                attempt label (fun () ->
                                    Ksafety.repair ?topology ~k ~failed r)
                              with
                              | None -> ()
                              | Some gained ->
                                  placement b label r;
                                  Array.iteri
                                    (fun bk s ->
                                      Printf.bprintf b "gained %d:" bk;
                                      List.iter (Printf.bprintf b " %s")
                                        (List.map Fragment.name
                                           (Fragment.Set.elements s));
                                      Buffer.add_char b '\n')
                                    gained)
                            [ [ 0 ]; [ n - 1 ]; [ 0; 1 ] ])
                    [ 1; 2 ])
                (List.filter (fun z -> z <= n) [ 0; 2; 3 ]))
            [
              ("homogeneous", Backend.homogeneous n);
              ( "capacities 1,2,3",
                Backend.heterogeneous
                  (List.init n (fun i -> float_of_int (1 + (i mod 3)))) );
            ])
        [ 2; 3; 4; 5; 6; 8; 11; 16 ])
    workloads

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

(* The memetic on the shipped workloads: TPC-App and TPC-H, each by table
   and by column, the trace at three hours and the TPC-H journal the sql
   benchmark reallocates, on 2, 3, 6 and 8 backends.  Each greedy seed is
   improved under the three local-search modes at the experiments'
   parameters (30 iterations, population 8, as in [Common]) and once at
   12 iterations, population 5 and three mutations per parent, and gets
   one local-search pass.  Two seeds greedy does not make, everything on
   B1, are improved too: [test_segmented]'s two read classes and TPC-App
   by table. *)
let memetic_sweep b =
  let workloads =
    [
      ("tpcapp table", Tpcapp.workload ~granularity:`Table ~eb:300);
      ("tpcapp column", Tpcapp.workload ~granularity:`Column ~eb:300);
      ("tpch table", Tpch.workload ~granularity:`Table ~sf:1.);
      ("tpch column", Tpch.workload ~granularity:`Column ~sf:1.);
    ]
    @ List.map
        (fun hour -> (Printf.sprintf "trace %g" hour, Day.workload_at ~hour))
        [ 2.; 10.5; 19. ]
    @ [ ("tpch journal", tpch_journal_workload ()) ]
  in
  let common =
    { Memetic.default_params with Memetic.iterations = 30; population = 8 }
  in
  let other =
    {
      Memetic.default_params with
      Memetic.iterations = 12;
      population = 5;
      mutations_per_parent = 3;
    }
  in
  List.iteri
    (fun wi (wl, w) ->
      List.iter
        (fun n ->
          let backends = Backend.homogeneous n in
          let label s = Printf.sprintf "%s n=%d %s" wl n s in
          List.iteri
            (fun mi (name, mode) ->
              let params =
                { common with Memetic.local_search_mode = mode }
              in
              placement b (label name)
                (Memetic.allocate ~params
                   ~rng:(Rng.create ((100 * wi) + (10 * n) + mi))
                   w backends))
            [
              ("memetic none", Memetic.No_local_search);
              ("memetic consolidate", Memetic.Consolidate_only);
              ("memetic both", Memetic.Both_strategies);
            ];
          placement b (label "improve")
            (Memetic.improve ~params:other ~rng:(Rng.create (wi + n))
               (Greedy.allocate w backends));
          let searched, improved =
            Memetic.local_search (Greedy.allocate w backends)
          in
          Printf.bprintf b "%s %b\n" (label "local_search") improved;
          placement b (label "local_search") searched)
        [ 2; 3; 6; 8 ])
    workloads;
  let all_on_b1 w n =
    let a = Allocation.create w (Backend.homogeneous n) in
    Allocation.add_fragments a 0 (Workload.fragments w);
    Array.iter
      (fun c -> Allocation.set_assign a 0 c c.Query_class.weight)
      (Allocation.classes a);
    assert (Allocation.validate a = Ok ());
    a
  in
  let two_reads =
    Workload.normalize
      (Workload.make
         ~reads:
           [
             Query_class.read "q1" [ Fragment.table "a" ~size:1. ] ~weight:0.5;
             Query_class.read "q2" [ Fragment.table "b" ~size:1. ] ~weight:0.5;
           ]
         ~updates:[])
  in
  placement b "two reads on B1 improve"
    (Memetic.improve
       ~params:{ Memetic.default_params with Memetic.iterations = 25 }
       ~rng:(Rng.create 5) (all_on_b1 two_reads 2));
  let tpcapp = Tpcapp.workload ~granularity:`Table ~eb:300 in
  List.iter
    (fun n ->
      placement b
        (Printf.sprintf "tpcapp table on B1 n=%d improve" n)
        (Memetic.improve ~params:common ~rng:(Rng.create n)
           (all_on_b1 tpcapp n)))
    [ 2; 3; 6 ]

(* The allocation checker's findings.  The paper's Sec. 3 example (the
   CLI's quickstart), TPC-H and TPC-App by table and the trace at 14:00,
   each on four backends, placed by six allocators and corrupted nine ways,
   checked under k = 0..2 with no topology, two zones, or a topology one
   backend too large.  Each case renders its findings as sorted JSON lines:
   the set of findings is pinned, the order they come in is not. *)
let quickstart_workload () =
  let a = Fragment.table "A" ~size:1.
  and b = Fragment.table "B" ~size:1.
  and c = Fragment.table "C" ~size:1. in
  Workload.make
    ~reads:
      [
        Query_class.read "C1" [ a ] ~weight:0.30;
        Query_class.read "C2" [ b ] ~weight:0.25;
        Query_class.read "C3" [ c ] ~weight:0.25;
        Query_class.read "C4" [ a; b ] ~weight:0.20;
      ]
    ~updates:[]

(* Corrupt the first (class, backend) pair [applies] accepts, classes in
   workload order, and return the allocation; no-op when none does. *)
let corrupt_first classes applies corrupt alloc =
  let n = Allocation.num_backends alloc in
  let rec scan = function
    | [] -> ()
    | c :: rest -> (
        match List.find_opt (fun b -> applies alloc b c) (List.init n Fun.id) with
        | Some b -> corrupt alloc b c
        | None -> scan rest)
  in
  scan (classes (Allocation.workload alloc));
  alloc

let checker_corruptions =
  let module A = Allocation in
  let reads w = w.Workload.reads and updates w = w.Workload.updates in
  let served a b c = A.get_assign a b c > 1e-6 in
  let store_orphan ~on f a = Gen.plant a (on a) (Fragment.Set.singleton f) in
  let idle_or_last a =
    let n = A.num_backends a in
    let idle b =
      Fragment.Set.is_empty (A.fragments_of a b) && A.assigned_load a b <= 1e-9
    in
    Option.value ~default:(n - 1) (List.find_opt idle (List.init n Fun.id))
  in
  [
    ("none", Fun.id);
    ( "read share without data",
      corrupt_first reads
        (fun a b c -> not (A.holds a b c))
        (fun a b c -> A.set_assign a b c 0.1) );
    ( "halved read share",
      corrupt_first reads served (fun a b c ->
          A.set_assign a b c (A.get_assign a b c /. 2.)) );
    ( "halved update pin",
      corrupt_first updates served (fun a b u ->
          A.set_assign a b u (u.Query_class.weight /. 2.)) );
    ( "negative read share",
      corrupt_first reads served (fun a b c -> A.set_assign a b c (-0.05)) );
    ( "update weight without data",
      corrupt_first updates
        (fun a b u -> not (Dense.overlaps (A.state a) b (A.class_index a u)))
        (fun a b u -> A.set_assign a b u 0.1) );
    ( "every fragment everywhere",
      fun a ->
        for b = 0 to A.num_backends a - 1 do
          A.add_fragments a b (Workload.fragments (A.workload a))
        done;
        a );
    ( "unreferenced fragment",
      store_orphan ~on:(fun _ -> 0) (Fragment.table "orphan" ~size:5.) );
    ( "zero-size unreferenced fragment",
      store_orphan ~on:idle_or_last (Fragment.table "empty" ~size:0.) );
  ]

let checker_findings b =
  let n = 4 in
  let backends = Backend.homogeneous n in
  let workloads =
    [
      ("quickstart", quickstart_workload ());
      ("tpch table", Tpch.workload ~granularity:`Table ~sf:1.);
      ("tpcapp table", Tpcapp.workload ~granularity:`Table ~eb:300);
      ("trace 14h", Day.workload_at ~hour:14.);
    ]
  in
  let allocators w =
    [
      ("greedy", Greedy.allocate w backends);
      ("full", Baselines.full_replication w backends);
      ("random", Baselines.random_placement ~rng:(Rng.create 8) w backends);
      ( "memetic",
        Memetic.allocate
          ~params:{ Memetic.default_params with Memetic.iterations = 3 }
          ~rng:(Rng.create 23) w backends );
      ("ksafety", Ksafety.allocate ~k:1 w backends);
      ( "ksafety zones",
        Ksafety.allocate ~topology:(Topology.uniform ~zones:2 n) ~k:1 w
          backends );
    ]
  in
  let topologies =
    [
      ("none", None);
      ("2 zones", Some (Topology.uniform ~zones:2 n));
      ("5 backends", Some (Topology.uniform ~zones:2 (n + 1)));
    ]
  in
  List.iter
    (fun (wl, w) ->
      List.iter
        (fun (al, alloc) ->
          List.iter
            (fun (cl, corrupt) ->
              let a = corrupt (Allocation.copy alloc) in
              List.iter
                (fun k ->
                  List.iter
                    (fun (tl, topology) ->
                      Printf.bprintf b "case %s / %s / %s / k=%d / %s\n" wl al
                        cl k tl;
                      Cdbs_analysis.Check_allocation.check ~k ?topology a
                      |> List.map Cdbs_analysis.Diagnostic.to_json
                      |> List.sort String.compare
                      |> List.iter (Printf.bprintf b "%s\n"))
                    topologies)
                [ 0; 1; 2 ])
            checker_corruptions)
        (allocators w))
    workloads

(* The window loops of Fig_day and Fig_drift on their smoke presets, with
   a monitor attached: each run's SLO reports, window rows, counts, final
   placement and whole trace.  The ring holds 2^17 events, so the
   retained trace is every event the run emitted. *)
let slo b label (r : Slo.t) =
  Printf.bprintf b "%s %s\n" label (Slo.to_json r);
  Printf.bprintf b
    "p50 %h p95 %h p99 %h mean %h availability %h shed_rate %h wasted %h \
     moved %h drift %h\n"
    r.Slo.p50_s r.Slo.p95_s r.Slo.p99_s r.Slo.mean_s r.Slo.availability
    r.Slo.shed_rate r.Slo.wasted_work_s r.Slo.bytes_moved_mb r.Slo.drift_score;
  List.iter (fun (bk, u) -> Printf.bprintf b " %d=%h" bk u) r.Slo.utilization;
  Buffer.add_char b '\n'

let whole_trace b (sink : Sink.t) =
  Printf.bprintf b "trace total %d dropped %d\n" (Tr.total sink.Sink.trace)
    (Tr.dropped sink.Sink.trace);
  List.iter (event b) (Tr.events sink.Sink.trace)

let day_and_drift b =
  let capacity = 1 lsl 17 in
  List.iter
    (fun autotune ->
      let params =
        { Fig_day.smoke with Fig_day.autotune; trace_capacity = capacity }
      in
      let monitor = Monitor.create () in
      let r = Fig_day.run ~params ~monitor () in
      Printf.bprintf b "day autotune %b events %d violations %d\n" autotune
        r.Fig_day.events (Monitor.violations monitor);
      slo b "report" r.Fig_day.report;
      List.iter
        (fun (w : Fig_day.window_row) ->
          Printf.bprintf b "window %h %h %d %d %d %d %h %b %d\n" w.Fig_day.hour
            w.Fig_day.rate_per_10min w.Fig_day.nodes w.Fig_day.w_offered
            w.Fig_day.w_completed w.Fig_day.w_shed w.Fig_day.w_p99_ms
            w.Fig_day.migrating w.Fig_day.w_faults)
        r.Fig_day.windows;
      whole_trace b r.Fig_day.sink)
    [ false; true ];
  let tight =
    { Loop.max_p99_ratio = 1.0; abs_p99_s = 0.01; min_availability = 0.9 }
  in
  List.iter
    (fun (seed, chaos, guardrails) ->
      let s = Fig_drift.smoke in
      let control =
        match guardrails with
        | None -> s.Fig_drift.control
        | Some g -> { s.Fig_drift.control with Loop.guardrails = g }
      in
      let params =
        { s with Fig_drift.seed; chaos; control; trace_capacity = capacity }
      in
      let monitor = Monitor.create () in
      let r = Fig_drift.run ~params ~monitor () in
      Printf.bprintf b
        "drift seed %d chaos %b tight %b events %d reallocations %d \
         rollbacks %d commits %d peak %h violations %d\n"
        seed chaos (guardrails <> None) r.Fig_drift.events
        r.Fig_drift.reallocations r.Fig_drift.rollbacks r.Fig_drift.commits
        r.Fig_drift.peak_drift (Monitor.violations monitor);
      List.iter
        (fun (label, (a : Fig_drift.arm)) ->
          slo b label a.Fig_drift.report;
          List.iter
            (fun (w : Fig_drift.window_row) ->
              Printf.bprintf b "window %h %d %d %d %h %S %d\n" w.Fig_drift.hour
                w.Fig_drift.w_offered w.Fig_drift.w_completed
                w.Fig_drift.w_shed w.Fig_drift.w_p99_ms w.Fig_drift.w_action
                w.Fig_drift.w_faults)
            a.Fig_drift.rows;
          whole_trace b a.Fig_drift.sink)
        [ ("static", r.Fig_drift.static_); ("tuned", r.Fig_drift.tuned) ];
      placement b "final" r.Fig_drift.final_alloc)
    [
      (42, false, None); (42, true, None);
      (42, false, Some tight); (42, true, Some tight);
      (7, false, Some tight); (7, true, Some tight);
    ]

(* The flat allocation core end to end: Dense.greedy, the island memetic,
   chained and explicit repairs covering every delta kind, and check_dense
   on each state and on two corrupted ones.  A state renders as every
   alive class's non-zero shares in ascending backend order, each
   backend's flag, load, stored size and held bitset, and the update pin
   counts. *)
let dense_state b label (t : Dense.t) =
  let inst = t.Dense.inst in
  let n = Dense.num_backends t in
  Printf.bprintf b "state %s classes %d backends %d scale %h stored %h\n" label
    inst.Dense.n_classes n (Dense.scale t) (Dense.total_stored t);
  for c = 0 to inst.Dense.n_classes - 1 do
    if t.Dense.c_alive.(c) then begin
      Printf.bprintf b "%s" inst.Dense.class_id.(c);
      Dense.iter_shares t c (fun bk w -> Printf.bprintf b " %d=%h" bk w);
      Buffer.add_char b '\n'
    end
  done;
  for bk = 0 to n - 1 do
    Printf.bprintf b "backend %d %b load %h stored %h held %s\n" bk
      t.Dense.b_alive.(bk) t.Dense.load.(bk) t.Dense.stored.(bk)
      (Digest.to_hex (Digest.bytes t.Dense.held.(bk)))
  done;
  Buffer.add_string b "pins";
  for c = 0 to inst.Dense.n_classes - 1 do
    Printf.bprintf b " %d" t.Dense.upd_pins.(c)
  done;
  Buffer.add_char b '\n'

let dense_findings b ?k ?topology t =
  Cdbs_analysis.Check_allocation.check_dense ?k ?topology t
  |> List.map Cdbs_analysis.Diagnostic.to_json
  |> List.sort String.compare
  |> List.iter (Printf.bprintf b "%s\n")

let dense_checked b ?k ?topology label t =
  dense_state b label t;
  dense_findings b ?k ?topology t

let repair_stats b (s : Incremental.stats) =
  Printf.bprintf b
    "touched %d moved %d %h dropped %d %h rebalance %d\n"
    s.Incremental.touched_classes s.Incremental.moved_fragments
    s.Incremental.moved_mb s.Incremental.dropped_fragments
    s.Incremental.dropped_mb s.Incremental.rebalance_fragments;
  Array.iter
    (fun (f, dest, src) ->
      Printf.bprintf b "move %d %d %s\n" f dest
        (match src with Some s -> string_of_int s | None -> "-"))
    s.Incremental.moves

let dense_core b =
  let wide =
    Dense.synthetic ~rng:(Rng.create 101) ~fragments:3000 ~reads:800
      ~updates:200 ~backends:12 ()
  in
  let g = Dense.greedy wide in
  dense_checked b "greedy wide" g;
  let params =
    {
      Memetic_par.population = 4;
      generations = 4;
      mutations_per_parent = 2;
      islands = 2;
      migration_every = 2;
    }
  in
  List.iter
    (fun seed ->
      let m = Memetic_par.improve ~params ~domains:1 ~seed (Dense.copy g) in
      dense_checked b (Printf.sprintf "memetic seed %d" seed) m)
    [ 7; 11 ];
  dense_checked b "greedy wide after memetic" g;
  let rng = Rng.create 103 in
  let st = ref (Dense.copy g) in
  for i = 1 to 3 do
    let deltas = Incremental.random_delta ~rng ~frac:0.02 !st in
    let st', stats = Incremental.repair !st deltas in
    Printf.bprintf b "chain %d deltas %d\n" i (List.length deltas);
    repair_stats b stats;
    dense_checked b (Printf.sprintf "chain %d" i) st';
    st := st'
  done;
  let small =
    Dense.synthetic ~materialize:true ~rng:(Rng.create 102) ~fragments:400
      ~reads:120 ~updates:30 ~backends:5 ()
  in
  let gs = Dense.greedy small in
  dense_checked b "greedy small" gs;
  let r0 = small.Dense.read_idx.(0) and r1 = small.Dense.read_idx.(1) in
  let u0 = small.Dense.upd_idx.(0) and u1 = small.Dense.upd_idx.(1) in
  let hot = small.Dense.read_idx.(2) in
  let weight c = small.Dense.class_weight.(c) in
  let step label ?k ?topology ?budget ?balance st deltas =
    let st', stats = Incremental.repair ?k ?topology ?budget ?balance st deltas in
    Printf.bprintf b "repair %s\n" label;
    repair_stats b stats;
    dense_checked b ?k ?topology label st';
    st'
  in
  let s1 =
    step "reweights, adds and retirements" (Dense.copy gs)
      [
        Incremental.Reweight { cls = r0; weight = 0. };
        Incremental.Reweight { cls = u0; weight = 2. *. weight u0 };
        Incremental.Add_read
          { id = "q+new"; weight = 0.01; frags = [| 3; 4; 5 |] };
        Incremental.Add_update
          { id = "u+new"; weight = 0.005; frags = [| 10; 11 |] };
        Incremental.Retire_class { cls = r1 };
        Incremental.Retire_class { cls = u1 };
      ]
  in
  let s2 =
    step "reweight from zero, backend added" s1
      [
        Incremental.Reweight { cls = r0; weight = 0.01 };
        Incremental.Add_backend { name = "B6"; capacity = 1.0 };
      ]
  in
  let s3 =
    step "budgeted backend added, backend retired" ~budget:5 s2
      [
        Incremental.Add_backend { name = "B7"; capacity = 2.0 };
        Incremental.Retire_backend { backend = 1 };
      ]
  in
  let n3 = Dense.num_backends s3 in
  let _ =
    step "k=1 across three zones" ~k:1
      ~topology:(Topology.uniform ~zones:3 n3)
      s3
      [
        Incremental.Reweight { cls = hot; weight = 3. *. weight hot };
        Incremental.Add_read { id = "q+k"; weight = 0.01; frags = [| 20; 21 |] };
      ]
  in
  let _ =
    step "balance" ~budget:60 ~balance:true (Dense.copy gs)
      [ Incremental.Reweight { cls = hot; weight = 8. *. weight hot } ]
  in
  (* Two corruptions the checker must report: a share on a backend that
     lacks the class's data, and a negative share. *)
  let first_backend p =
    let rec go bk = if p bk then bk else go (bk + 1) in
    go 0
  in
  let lacking = Dense.copy gs in
  let bk = first_backend (fun bk -> not (Dense.holds lacking bk r1)) in
  Dense.set_share lacking bk r1 0.1;
  dense_checked b "share without data" lacking;
  let negative = Dense.copy gs in
  let bk = first_backend (fun bk -> Dense.share negative bk r1 > 0.) in
  Dense.set_share negative bk r1 (-0.05);
  dense_checked b "negative share" negative;
  (* The same two on every read class of the wide instance: the checker
     keeps the first 100 findings of a code, backend-major. *)
  let smeared = Dense.copy g and flipped = Dense.copy g in
  Array.iter
    (fun c ->
      for bk = 0 to Dense.num_backends g - 1 do
        let w = Dense.share g bk c in
        if not (Dense.holds g bk c) then Dense.set_share smeared bk c 1e-3;
        if w > 0. then Dense.set_share flipped bk c (-.w)
      done)
    wide.Dense.read_idx;
  dense_checked b "shares without data everywhere" smeared;
  dense_checked b "negative shares everywhere" flipped

(* Incremental.repair's k step: chains of three repairs on k-safe
   placements of four synthetic instances, for k = 1 and 2 with no
   topology and with 2 and 3 uniform zones.  Each link is a random 5%
   delta; the second also adds a backend and the third retires backend
   0.  Every state is rendered and checked under its k and topology. *)
let incremental_k_chains b =
  List.iter
    (fun (seed, backends) ->
      let rng = Rng.create seed in
      let inst =
        Dense.synthetic ~materialize:true ~rng ~fragments:160 ~reads:40
          ~updates:10 ~backends ()
      in
      let w = Gen.workload_of_instance inst in
      let bs = Array.to_list inst.Dense.backends in
      List.iter
        (fun k ->
          List.iter
            (fun zones ->
              let topology n =
                if zones = 0 then None else Some (Topology.uniform ~zones n)
              in
              let label i =
                Printf.sprintf "seed %d k=%d zones=%d link %d" seed k zones i
              in
              let st =
                ref
                  (Allocation.state
                     (Ksafety.allocate ?topology:(topology backends) ~k w bs))
              in
              dense_checked b ~k ?topology:(topology backends) (label 0) !st;
              List.iteri
                (fun i extra ->
                  let deltas =
                    extra @ Incremental.random_delta ~rng ~frac:0.05 !st
                  in
                  let n =
                    Dense.num_backends !st
                    + List.length
                        (List.filter
                           (function
                             | Incremental.Add_backend _ -> true | _ -> false)
                           extra)
                  in
                  let st', stats =
                    Incremental.repair ~k ?topology:(topology n) !st deltas
                  in
                  repair_stats b stats;
                  dense_checked b ~k ?topology:(topology n) (label (i + 1)) st';
                  st := st')
                [
                  [];
                  [ Incremental.Add_backend { name = "B+"; capacity = 1.0 } ];
                  [ Incremental.Retire_backend { backend = 0 } ];
                ])
            [ 0; 2; 3 ])
        [ 1; 2 ])
    [ (211, 5); (223, 7); (227, 4); (229, 8) ]

(* The monitor's diagnostics: streams that break (or keep) each TRC rule,
   from the monitor's unit tests and `cdbs_cli verify-trace --inject`,
   each fed to a fresh monitor, plus a ring overflow on an attached sink.
   Every field of every diagnostic the report keeps is rendered. *)
module Mon_stream = struct
  let run_start at = Tr.Run_start { at; backends = 4; offered = 0 }
  let crash at backend = Tr.Backend_crash { at; backend }
  let catchup_done at backend = Tr.Backend_catchup_done { at; backend }
  let partition at backend = Tr.Backend_partition { at; backend }

  let recover ?(replay = 0.) at backend =
    Tr.Backend_recover { at; backend; replay_mb = replay }

  let heal ?(replay = 0.) at backend epoch =
    Tr.Backend_heal { at; backend; epoch; replay_mb = replay }

  let fence_lift at backend epoch = Tr.Backend_fence_lift { at; backend; epoch }

  let serve ?(kind = `Read) ?finish at backend =
    let finish = Option.value finish ~default:(at +. 0.01) in
    let kind : Tr.serve_kind =
      match kind with
      | `Read -> Read "C1"
      | `Update -> Update
      | `Catchup -> Catchup
    in
    Tr.Backend_serve { at; backend; kind; start = at; finish }

  let breaker at backend state =
    let state : Tr.breaker_state =
      match state with
      | `Closed -> Closed
      | `Open -> Open
      | `Half_open -> Half_open
    in
    Tr.Breaker_transition { at; backend; state }

  let retry ?remaining at uid attempt retry_at =
    Tr.Request_retry { at; uid; attempt; retry_at; remaining_s = remaining }

  let hedge_armed at uid fire_at =
    Tr.Request_hedge_armed { at; uid; primary = 0; fire_at }

  let hedge_win at uid = Tr.Request_hedge_win { at; uid; backend = 1 }

  let summary ?(offered = 10) ?(completed = 8) ?(aborted = 2) ?(shed = 1)
      ?(timeouts = 1) ?(hedged = 3) ?(hedge_wins = 1) ?(offered_updates = 4)
      ?(completed_updates = 4) at =
    Tr.Run_summary
      {
        at; offered; completed; aborted; shed; timeouts; retries = 0; hedged;
        hedge_wins; offered_updates; completed_updates;
      }

  let floor at cls floor = Tr.Migration_floor { at; cls; floor }
  let live at cls replicas = Tr.Migration_live { at; cls; replicas }

  let session at =
    Tr.Control_session
      {
        at; threshold = 0.25; hysteresis = 0.05; cooldown_s = 1800.;
        canary_windows = 2;
      }

  let trigger ?(cooldown = 600.) at =
    Tr.Control_trigger
      { at; score = 2.; threshold = 1.; cooldown_s = cooldown }

  let realloc_start ?(moved = 0.) at id =
    Tr.Control_reallocate_start { at; id; moved_mb = moved }

  let breach at id =
    Tr.Control_breach { at; id; metric = "p99_s"; value = 2.; limit = 1. }

  let commit at id = Tr.Control_commit { at; id }
  let rollback at id = Tr.Control_rollback { at; id }
  let custom at name attrs = Tr.custom ~at name attrs

  let streams =
    let s = run_start 0. in
    [
      ("TRC001 double crash", [ s; crash 1. 0; crash 2. 0 ]);
      ("TRC001 crash while partitioned", [ s; partition 1. 0; crash 2. 0 ]);
      ("TRC002 spurious recover", [ s; recover 1. 2 ]);
      ("TRC003 read while down", [ s; crash 1. 0; serve 2. 0 ]);
      ("TRC003 update while down", [ s; crash 1. 1; serve ~kind:`Update 2. 1 ]);
      ("TRC004 closed to half-open", [ s; breaker 1. 0 `Half_open ]);
      ("TRC004 open to closed", [ s; breaker 1. 0 `Open; breaker 2. 0 `Closed ]);
      ( "TRC004 legal cycle",
        [
          s; breaker 1. 0 `Open; breaker 2. 0 `Half_open; breaker 3. 0 `Closed;
          breaker 4. 0 `Open; breaker 5. 0 `Half_open; breaker 6. 0 `Open;
        ] );
      ( "TRC005 read on stale",
        [ s; crash 1. 0; recover ~replay:4. 2. 0; serve 3. 0 ] );
      ( "TRC005 stale updates allowed",
        [
          s; crash 1. 0; recover ~replay:4. 2. 0; serve ~kind:`Update 3. 0;
          serve ~kind:`Catchup 4. 0; catchup_done 5. 0; serve 6. 0;
        ] );
      ("TRC005 catch-up with none pending", [ s; catchup_done 1. 0 ]);
      ( "TRC006 below the floor",
        [ s; floor 0. "C1" 2; live 1. "C1" 2; live 2. "C1" 1 ] );
      ("TRC007 retry in the past", [ s; retry 5. 7 1 4. ]);
      ("TRC007 attempt stuck", [ s; retry 1. 7 1 1.5; retry 2. 7 1 2.5 ]);
      ("TRC007 attempt zero", [ s; retry 1. 7 0 1.5 ]);
      ( "TRC007 budget growing",
        [ s; retry ~remaining:0.8 1. 7 1 1.5; retry ~remaining:1.6 2. 7 2 2.5 ] );
      ( "TRC007 healthy chain",
        [
          s; retry ~remaining:1.5 1. 7 1 1.2; retry ~remaining:0.9 2. 7 2 2.3;
          retry ~remaining:0.2 3. 7 3 3.4;
        ] );
      ("TRC008 completed short", [ s; summary ~completed:9 10. ]);
      ("TRC008 shed over aborted", [ s; summary ~shed:3 10. ]);
      ("TRC008 timeouts over aborted", [ s; summary ~timeouts:3 10. ]);
      ("TRC008 updates over-completed", [ s; summary ~completed_updates:5 10. ]);
      ("TRC008 balanced", [ s; summary 10. ]);
      ("TRC009 win without arm", [ s; hedge_win 1. 7 ]);
      ( "TRC009 arm consumed",
        [ s; hedge_armed 1. 7 1.5; hedge_win 2. 7; hedge_win 3. 7 ] );
      ("TRC009 armed in the past", [ s; hedge_armed 2. 7 1. ]);
      ("TRC009 wins over hedges", [ s; summary ~hedged:1 ~hedge_wins:2 10. ]);
      ("TRC010 end without start", [ s; custom 1. "checkpoint.end" [] ]);
      ( "TRC010 negative duration",
        [
          s; custom 1. "checkpoint.start" [];
          custom 2. "checkpoint.end" [ ("duration_s", Tr.Float (-1.)) ];
        ] );
      ( "TRC010 paired and unclosed",
        [
          s; custom 1. "checkpoint.start" [];
          custom 2. "checkpoint.end" [ ("duration_s", Tr.Float 1.) ];
          custom 3. "migration.start" [];
        ] );
      ("TRC011 negative timestamp", [ s; crash (-1.) 0 ]);
      ("TRC011 NaN timestamp", [ s; crash nan 1 ]);
      ("TRC011 service runs backwards", [ s; serve ~finish:1. 2. 0 ]);
      ("TRC013 partition of a down backend", [ s; crash 1. 0; partition 2. 0 ]);
      ("TRC013 double partition", [ s; partition 1. 0; partition 2. 0 ]);
      ("TRC013 recover while partitioned", [ s; partition 1. 0; recover 2. 0 ]);
      ("TRC013 heal of a running backend", [ s; heal 1. 0 1; fence_lift 1. 0 1 ]);
      ( "TRC013 update while partitioned",
        [ s; partition 1. 0; serve ~kind:`Update 2. 0 ] );
      ( "TRC014 fence lift epoch mismatch",
        [ s; partition 1. 0; heal ~replay:2. 2. 0 1; fence_lift 3. 0 2 ] );
      ("TRC015 fence lift of an unfenced backend", [ s; fence_lift 1. 0 0 ]);
      ( "TRC015 fenced catch-up without lift",
        [ s; partition 1. 0; heal ~replay:2. 2. 0 1; catchup_done 3. 0 ] );
      ("run.start resets state", [ s; crash 1. 0; s; crash 1. 0 ]);
      ( "per-code suppression cap",
        s :: List.init 80 (fun i -> recover (float_of_int i) 2) );
      ("a bare run", [ s ]);
      ( "TRC016 trigger mid-reallocation",
        [ s; session 1.; realloc_start 2. 1; trigger 3. ] );
      ("TRC016 commit with none in flight", [ s; session 1.; commit 2. 1 ]);
      ( "TRC016 commit names the wrong id",
        [ s; session 1.; realloc_start 2. 1; commit 3. 2 ] );
      ( "TRC018 rollback after a breach",
        [ s; session 1.; realloc_start 2. 1; breach 3. 1; rollback 3. 1 ] );
      (* The eight injected streams of `cdbs_cli verify-trace --inject`. *)
      ("inject breaker-hop", [ s; breaker 1. 0 `Half_open ]);
      ( "inject rejoin",
        [ s; crash 1. 0; recover ~replay:4. 2. 0; serve ~finish:3.1 3. 0 ] );
      ( "inject deadline",
        [ s; retry ~remaining:0.8 1. 7 1 1.5; retry ~remaining:1.6 2. 7 2 2.5 ] );
      ("inject down-serve", [ s; crash 1. 0; serve ~finish:2.2 2. 0 ]);
      ( "inject split-brain",
        [
          s; partition 1. 0; serve ~finish:2.1 2. 0; heal ~replay:4. 3. 0 1;
          serve ~finish:4.1 4. 0; fence_lift 5. 0 1; partition 6. 0;
          heal 7. 0 1;
        ] );
      ( "inject overlap-realloc",
        [
          s; session 1.; realloc_start ~moved:64. 2. 1;
          realloc_start ~moved:32. 3. 2;
        ] );
      ( "inject cooldown-trigger",
        [ s; session 1.; realloc_start 2. 1; commit 3. 1; trigger 4. ] );
      ( "inject rogue-rollback",
        [ s; session 1.; realloc_start 2. 1; rollback 3. 1 ] );
    ]
end

let monitor_reports b =
  let render label m =
    Printf.bprintf b "stream %s: seen %d violations %d\n" label
      (Monitor.events_seen m) (Monitor.violations m);
    List.iter
      (fun (d : Diagnostic.t) ->
        Printf.bprintf b "%s %s [%s] %s" d.Diagnostic.code
          (Diagnostic.severity_label d.Diagnostic.severity)
          d.Diagnostic.subject d.Diagnostic.message;
        List.iter
          (fun (k, v) ->
            match v with
            | Diagnostic.Str s -> Printf.bprintf b " %s=%S" k s
            | Diagnostic.Num f -> Printf.bprintf b " %s=%h" k f
            | Diagnostic.Int i -> Printf.bprintf b " %s=%d" k i
            | Diagnostic.Bool x -> Printf.bprintf b " %s=%b" k x)
          d.Diagnostic.data;
        Buffer.add_char b '\n')
      (Monitor.report m)
  in
  List.iter
    (fun (label, stream) ->
      let m = Monitor.create () in
      List.iter (Monitor.observe m) stream;
      render label m)
    Mon_stream.streams;
  (* TRC012: the ring of an attached sink overflows. *)
  let sink = Sink.create ~capacity:8 () in
  let m = Monitor.create () in
  ignore (Monitor.attach m sink);
  for i = 0 to 19 do
    Tr.push sink.Sink.trace (Tr.custom ~at:(float_of_int i) "tick" [])
  done;
  render "TRC012 ring overflow" m

(* ------------------------------------------------------------------ *)
(* The SQL path: executor results and the controller's journal         *)
(* ------------------------------------------------------------------ *)

module Database = Cdbs_storage.Database
module Executor = Cdbs_storage.Executor
module Value = Cdbs_storage.Value
module Controller = Cdbs_cluster.Controller

let sql_value b = function
  | Value.Int i -> Printf.bprintf b " %d" i
  | Value.Float f -> Printf.bprintf b " %h" f
  | Value.Str s -> Printf.bprintf b " %S" s
  | Value.Bool x -> Printf.bprintf b " %b" x
  | Value.Null -> Buffer.add_string b " NULL"

(* Column names, every row in order, or the error message. *)
let sql_result b = function
  | Ok (Executor.Rows { columns; rows }) ->
      Printf.bprintf b "rows [%s] %d\n" (String.concat "," columns)
        (List.length rows);
      List.iter
        (fun row ->
          Array.iter (sql_value b) row;
          Buffer.add_char b '\n')
        rows
  | Ok (Executor.Affected n) -> Printf.bprintf b "affected %d\n" n
  | Error e -> Printf.bprintf b "error %S\n" e

let run_sql b db sql =
  Printf.bprintf b "> %s\n" sql;
  sql_result b (Executor.execute_sql db sql)

let mini_tpch () =
  Tpch.linked_database ~rng:(Rng.create 1)
    ~rows:
      [
        ("supplier", 10); ("customer", 60); ("part", 80); ("partsupp", 320);
        ("orders", 300); ("lineitem", 1200);
      ]

(* Mutated statements often lose an ON clause, and cross products of the
   fact tables must stay small. *)
let tiny_tpch () =
  Tpch.linked_database ~rng:(Rng.create 2)
    ~rows:
      [
        ("supplier", 4); ("customer", 10); ("part", 10); ("partsupp", 40);
        ("orders", 20); ("lineitem", 60);
      ]

(* perfbench's seven point-write shapes, with fixed keys and values. *)
let tpch_point_writes =
  [
    "UPDATE customer SET c_acctbal = c_acctbal + 123.45 WHERE c_custkey = 17";
    "UPDATE part SET p_retailprice = 999.99 WHERE p_partkey = 23";
    "UPDATE supplier SET s_acctbal = s_acctbal - 12.5 WHERE s_suppkey = 3";
    "UPDATE partsupp SET ps_availqty = ps_availqty - 1 WHERE ps_partkey = 41";
    "UPDATE orders SET o_totalprice = 5.25 WHERE o_orderkey = 77";
    "INSERT INTO orders (o_orderkey, o_custkey, o_orderstatus, o_totalprice, \
     o_orderdate, o_orderpriority, o_clerk, o_shippriority, o_comment) VALUES \
     (10000001, 12, 'O', 321.5, '1996-03-14', '3-MEDIUM', 'Clerk#42', 0, \
     'bench')";
    "INSERT INTO lineitem (l_orderkey, l_partkey, l_suppkey, l_linenumber, \
     l_quantity, l_extendedprice, l_discount, l_tax, l_returnflag, \
     l_linestatus, l_shipdate, l_commitdate, l_receiptdate, l_shipinstruct, \
     l_shipmode, l_comment) VALUES (10000001, 5, 6, 1, 7.0, 70.5, 0.06, 0.02, \
     'N', 'O', '1997-04-12', '1997-05-21', '1997-06-23', 'NONE', 'MAIL', \
     'bench')";
  ]

(* The 19 queries on linked data, after perfbench's point writes, and
   after writes that touch many rows. *)
let tpch_executor b =
  let db = mini_tpch () in
  let queries () = List.iter (fun (_, sql) -> run_sql b db sql) Tpch_queries.all in
  queries ();
  List.iter (run_sql b db) tpch_point_writes;
  queries ();
  List.iter (run_sql b db)
    [
      "UPDATE lineitem SET l_discount = l_discount + 0.01 WHERE l_shipmode = \
       'MAIL'";
      "UPDATE part SET p_size = p_size + 1 WHERE p_size BETWEEN 1 AND 5";
      "DELETE FROM lineitem WHERE l_quantity > 45";
      "DELETE FROM orders WHERE o_orderkey = 5 OR o_orderkey = 6";
      "UPDATE orders SET o_orderkey = 5 WHERE o_orderkey = 7";
    ];
  queries ()

(* Unknown columns and tables, arity mismatches, lazy errors, and the
   resolution, join, grouping and ordering rules. *)
let executor_rules b =
  let db = mini_tpch () in
  List.iter (run_sql b db)
    [
      "SELECT bogus FROM nation";
      "SELECT x.n_name FROM nation";
      "SELECT n_name FROM nation WHERE bogus = 1";
      "SELECT n_name FROM nation WHERE n_nationkey < 0 AND bogus = 1";
      "SELECT n_name FROM nation WHERE n_nationkey < 3 OR bogus = 1";
      "SELECT n_name FROM nation WHERE n_nationkey IN (1, 2, bogus)";
      "SELECT n_name FROM nation WHERE upper(n_name) = 'X'";
      "SELECT upper(n_name) FROM nation";
      "SELECT count(*) FROM nation GROUP BY bogus";
      "SELECT count(*) FROM nation WHERE n_nationkey < 0 GROUP BY bogus";
      "SELECT sum(*) FROM nation";
      "SELECT sum(*) FROM nation WHERE n_nationkey < 0";
      "SELECT count(n_name, n_nationkey) FROM nation";
      "SELECT n_name FROM nation JOIN region ON bogus = r_regionkey";
      "SELECT n_name FROM nation JOIN region ON n_regionkey = bogus";
      "SELECT n_name FROM nation JOIN region ON n_regionkey < bogus";
      "SELECT n_name FROM nation JOIN region ON r_regionkey = n_regionkey \
       WHERE r_name = 'ASIA' ORDER BY n_name";
      "SELECT * FROM bogus";
      "SELECT n_name FROM nation JOIN bogus ON n_regionkey = b";
      "SELECT * FROM nation JOIN bogus ON n_regionkey = b";
      "SELECT n_name FROM nation JOIN region ON bogus = r_regionkey JOIN bogus \
       ON a = b";
      "INSERT INTO bogus VALUES (1)";
      "UPDATE bogus SET a = 1";
      "DELETE FROM bogus";
      "INSERT INTO region (r_regionkey) VALUES (1, 2)";
      "INSERT INTO region VALUES (9)";
      "INSERT INTO region VALUES (1, 'x', 'y')";
      "INSERT INTO region VALUES (9, bogus, 'y')";
      "INSERT INTO region (r_regionkey, r_name) VALUES (7, NULL)";
      "SELECT r_regionkey, r_comment FROM region WHERE r_comment = NULL";
      "UPDATE nation SET bogus = 1 WHERE n_nationkey = 1";
      "UPDATE nation SET n_comment = bogus WHERE n_nationkey = 1";
      "UPDATE nation SET bogus = 1 WHERE n_nationkey = 99";
      "DELETE FROM nation WHERE bogus = 1";
      "DELETE FROM nation WHERE n_nationkey = 99 AND bogus = 1";
      "UPDATE region SET r_name = r_comment, r_comment = r_name WHERE \
       r_regionkey = 2";
      "UPDATE region SET r_comment = 'q' WHERE x.r_regionkey = 3";
      "SELECT * FROM region ORDER BY r_regionkey";
      "SELECT *, r_name FROM region r WHERE r.r_regionkey > 2";
      "SELECT n_name FROM nation n WHERE nation.n_nationkey = 1";
      "SELECT n_name FROM nation ORDER BY n_regionkey DESC, n_name";
      "SELECT n_name FROM nation ORDER BY bogus, n_name DESC";
      "SELECT n_regionkey, count(*) AS n FROM nation GROUP BY n_regionkey \
       ORDER BY n DESC, n_nationkey";
      "SELECT a.n_name, b.n_name FROM nation a JOIN nation b ON a.n_regionkey \
       = b.n_nationkey WHERE b.n_name = 'ARGENTINA'";
      "SELECT nation.n_name, b.n_name FROM nation a JOIN nation b ON \
       a.n_nationkey = b.n_regionkey";
      "SELECT n_name, r_name FROM nation a, region WHERE a.n_regionkey = \
       r_regionkey AND r_name = 'EUROPE' ORDER BY n_name";
      "SELECT c_name, n_name FROM customer, nation WHERE c_nationkey = \
       n_nationkey AND n_name = 'GERMANY' AND c_acctbal > 0 ORDER BY c_name";
      "SELECT count(*) FROM lineitem JOIN part ON l_quantity = p_size";
      "SELECT count(*), sum(o_totalprice) FROM orders JOIN customer ON \
       o_custkey = c_custkey AND c_acctbal > 0";
      "SELECT DISTINCT l_shipmode FROM lineitem ORDER BY l_shipmode LIMIT 3";
      "SELECT l_returnflag, min(l_quantity), max(l_discount), avg(l_tax), \
       count(l_comment), sum(l_extendedprice) / count(*) FROM lineitem GROUP \
       BY l_returnflag HAVING count(*) > 10";
      "SELECT o_totalprice / 0, o_orderkey - 1, o_orderkey * 2.5, -o_orderkey \
       FROM orders WHERE o_orderkey <= 3";
      "SELECT l_orderkey, l_linenumber FROM lineitem WHERE l_orderkey = 5 AND \
       l_linenumber = 1";
      "SELECT p_name FROM part WHERE p_name LIKE '_reen%' AND NOT p_size \
       BETWEEN 2 AND 14";
      "SELECT s_name, ps_partkey FROM supplier, partsupp WHERE s_suppkey = \
       ps_suppkey AND ps_partkey < 4 AND s_acctbal > ps_supplycost";
      "SELECT o_orderkey, count(*) FROM orders JOIN lineitem ON o_orderkey = \
       l_orderkey WHERE o_orderkey < 10 AND 1 = 1 GROUP BY o_orderkey";
      "SELECT p_partkey = 3, p_size > 4 AND p_size < 9 FROM part WHERE \
       p_partkey < 6";
      "DELETE FROM partsupp WHERE ps_partkey = 2";
      "SELECT ps_partkey, ps_suppkey FROM partsupp WHERE ps_partkey < 4";
    ]

(* A fixed-seed corpus of mutated statements from the SQL fuzz property,
   run one after another on the same database. *)
let executor_fuzz b =
  let db = tiny_tpch () in
  List.iter (run_sql b db)
    (QCheck.Gen.generate ~rand:(Random.State.make [| 22 |]) ~n:1000
       Test_sql.mutated_statement)

(* A controller stream shaped like perfbench's sql workload, on a quarter
   of its rows: reads with the journal's query frequencies and 30% point
   writes, on full replication, then reallocate, then on the partial
   placement.  Every result, every journal cost and the placement. *)
let controller_stream b =
  let rows =
    List.map (fun (t, n) -> (t, max 5 (n / 4))) (Tpch.row_counts ~sf:0.001)
  in
  let ctl =
    Controller.create ~schema:Tpch.schema ~rows ~backends:4 ~seed:42
  in
  let rng = Rng.create 7 in
  let fresh = ref 10_000_000 in
  let write i =
    let key tbl = 1 + Rng.int rng (List.assoc tbl rows) in
    let amount () = float_of_int (Rng.int rng 100_000) /. 100. in
    match i mod 7 with
    | 0 ->
        Printf.sprintf
          "UPDATE customer SET c_acctbal = c_acctbal + %.2f WHERE c_custkey = %d"
          (amount ()) (key "customer")
    | 1 ->
        Printf.sprintf
          "UPDATE part SET p_retailprice = %.2f WHERE p_partkey = %d"
          (amount ()) (key "part")
    | 2 ->
        Printf.sprintf
          "UPDATE supplier SET s_acctbal = s_acctbal - %.2f WHERE s_suppkey = %d"
          (amount ()) (key "supplier")
    | 3 ->
        Printf.sprintf
          "UPDATE partsupp SET ps_availqty = ps_availqty - 1 WHERE ps_partkey \
           = %d"
          (key "partsupp")
    | 4 ->
        Printf.sprintf
          "UPDATE orders SET o_totalprice = %.2f WHERE o_orderkey = %d"
          (amount ()) (key "orders")
    | 5 ->
        incr fresh;
        Printf.sprintf
          "INSERT INTO orders (o_orderkey, o_custkey, o_orderstatus, \
           o_totalprice, o_orderdate, o_orderpriority, o_clerk, \
           o_shippriority, o_comment) VALUES (%d, %d, 'O', %.2f, \
           '1996-01-10', '3-MEDIUM', 'Clerk#1', 0, 'bench')"
          !fresh (key "customer") (amount ())
    | _ ->
        incr fresh;
        Printf.sprintf
          "INSERT INTO lineitem (l_orderkey, l_partkey, l_suppkey, \
           l_linenumber, l_quantity, l_extendedprice, l_discount, l_tax, \
           l_returnflag, l_linestatus, l_shipdate, l_commitdate, \
           l_receiptdate, l_shipinstruct, l_shipmode, l_comment) VALUES (%d, \
           %d, %d, 1, 3.0, %.2f, 0.05, 0.01, 'N', 'O', '1997-02-11', \
           '1997-03-21', '1997-03-22', 'NONE', 'MAIL', 'bench')"
          !fresh (key "part") (key "supplier") (amount ())
  in
  let phase n =
    let writes = n * 3 / 10 in
    let reads =
      Journal.entries (Tpch_queries.journal ~rng ~n:(n - writes) ~sf:0.001)
      |> List.map (fun (e : Journal.entry) -> e.Journal.sql)
    in
    let all = Array.of_list (List.init writes write @ reads) in
    Rng.shuffle rng all;
    Array.iter
      (fun sql ->
        Printf.bprintf b "> %s\n" sql;
        sql_result b (Controller.submit ctl sql))
      all
  in
  let placement () =
    List.iter
      (fun ts -> Printf.bprintf b "backend %s\n" (String.concat "," ts))
      (Controller.backend_tables ctl)
  in
  phase 40;
  (match Controller.reallocate ctl () with
  | Ok mb -> Printf.bprintf b "reallocated %h\n" mb
  | Error e -> Printf.bprintf b "reallocate error %S\n" e);
  placement ();
  phase 80;
  List.iter
    (fun (e : Journal.entry) ->
      Printf.bprintf b "journal %h %h\n" e.Journal.at e.Journal.cost)
    (Journal.entries (Controller.journal ctl));
  let processed, total = Controller.stats ctl in
  Printf.bprintf b "processed %d total %h\n" processed total;
  placement ()

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
    pinned "Memetic.improve and allocate: shipped workloads"
      "f83cc75dbb69d775f1d5ac6cfde01e8a" memetic_sweep;
    pinned "Greedy.allocate: shipped workloads on 1-16 backends"
      "e457ace3c13590067e3c3f096753555e" greedy_sweep;
    pinned "Ksafety.allocate and repair: shipped workloads"
      "31f15d52568b227b7cdc9a47483cfdec" ksafety_sweep;
    pinned "run_open_with_faults: defenses under chaos"
      "0445d3877cbd4767cfa05dca5bfa52ca" defended_chaos;
    pinned "Check_allocation.check: findings under corruptions"
      "3cd75c89954ff95632795b803fb07e2e" checker_findings;
    pinned "Fig_day.run and Fig_drift.run: smoke window loops"
      "92be9e3278c419812905057314e89038" day_and_drift;
    pinned "Dense: greedy, memetic islands and repair chains"
      "db827395ec26c9c00aa1399bf451d9f6" dense_core;
    pinned "Incremental.repair ~k: chains on k-safe synthetic placements"
      "1e5657ee32a3191aaadca69fdafda96f" incremental_k_chains;
    pinned "Monitor.report: one stream per TRC rule"
      "8f8279c4d199df4b58ffeb971ead66e6" monitor_reports;
    pinned "Executor: TPC-H queries around writes on linked data"
      "ae8039e59c7cf92be3b4871a927fe3bc" tpch_executor;
    pinned "Executor: errors and resolution rules"
      "ae88efd244e945b898a03a3d18b0c734" executor_rules;
    pinned "Executor: 1,000 mutated statements"
      "946dd9bffa019cf4ec6465764dbb7680" executor_fuzz;
    pinned "Controller.submit: a mixed stream, reallocate, partial placement"
      "8729b28f6d62b60b8f47ffd6984396c0" controller_stream;
  ]
