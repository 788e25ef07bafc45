(* Bechamel micro-benchmarks of the allocation machinery, the trace path
   and the SQL executor.  The paper's tables and figures are sections of
   `cdbs experiment` (`all` runs every one).

   Usage: main.exe [micro] *)

module E = Cdbs_experiments
module Tel = Cdbs_telemetry

(* Runs [f] under Bechamel and returns the OLS estimate per run of each
   measure in [instances], in order. *)
let estimates ?(quota = 0.5) instances name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second quota) () in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let result = Benchmark.run cfg instances (List.hd (Test.elements test)) in
  List.map
    (fun instance ->
      match Analyze.OLS.estimates (Analyze.one ols instance result) with
      | Some (t :: _) -> t
      | _ -> nan)
    instances

let microbenchmark name f =
  match estimates [ Bechamel.Toolkit.Instance.monotonic_clock ] name f with
  | [ ns ] -> Fmt.pr "  %-52s %12.1f us/run@." name (ns /. 1e3)
  | _ -> assert false

(* The traced per-request path: [batch] read-serve events, shaped as the
   simulator emits them, into an 8,192-event ring (the [day] run's size)
   with a protocol monitor attached.  Reports wall time, minor-heap words
   allocated and words promoted to the major heap, per event. *)
let trace_benchmark () =
  let open Bechamel.Toolkit.Instance in
  let sink = Tel.Sink.create ~capacity:8192 () in
  let monitor = Cdbs_analysis.Monitor.create () in
  ignore (Cdbs_analysis.Monitor.attach monitor sink);
  let trace = sink.Tel.Sink.trace in
  Tel.Trace.push trace (Run_start { at = 0.; backends = 4; offered = 0 });
  let batch = 1000 and clock = ref 0. in
  let classes = Array.init 8 (Printf.sprintf "Q%d") in
  let name = "backend.serve into an 8192-event ring, monitored" in
  let serve () =
    for i = 0 to batch - 1 do
      let at = !clock in
      clock := at +. 0.001;
      Tel.Trace.push trace
        (Backend_serve
           {
             at;
             backend = i land 3;
             kind = Read classes.(i land 7);
             start = at;
             finish = at +. 0.002;
           })
    done
  in
  match estimates [ monotonic_clock; minor_allocated; promoted ] name serve with
  | [ ns; words; promoted ] ->
      let per x = x /. float_of_int batch in
      Fmt.pr "  %-52s %8.1f ns %6.1f words %6.1f promoted /event@." name
        (per ns) (per words) (per promoted);
      if not (Cdbs_analysis.Monitor.clean monitor) then
        failwith "trace benchmark: the monitor found violations"
  | _ -> assert false

(* The defended arm of the [overload] benchmark at a tenth of its length:
   300 requests/s for 60 s on four k = 1 backends, the busiest of a clean
   probe run slowed threefold for the middle half, every defense on and a
   protocol monitor attached.  Reports wall time, minor-heap words
   allocated and words promoted to the major heap, per simulator event. *)
let defended_arm_benchmark () =
  let open Bechamel.Toolkit.Instance in
  let module Sim = Cdbs_cluster.Simulator in
  let nodes = 4 and duration = 60. in
  let requests = E.Fig_overload.requests ~seed:42 ~rate_per_s:300. ~duration in
  let alloc =
    Cdbs_core.Ksafety.allocate ~k:1
      (Cdbs_workloads.Trace.workload_at ~hour:14.)
      (Cdbs_core.Backend.homogeneous nodes)
  in
  let config = Sim.homogeneous_config nodes in
  let probe = Sim.run_open config alloc requests in
  let victim = ref 0 in
  Array.iteri
    (fun b u -> if u > probe.Sim.utilization.(!victim) then victim := b)
    probe.Sim.utilization;
  let faults =
    [ Cdbs_faults.Fault.slowdown ~at:(duration /. 4.) ~backend:!victim
        ~factor:3. ~duration:(duration /. 2.) ]
  in
  let run () =
    Sim.run_open_with_faults ~rng:(Cdbs_util.Rng.create 43)
      ~resilience:(E.Fig_overload.defenses ~deadline_s:1.)
      ~monitor:(Cdbs_analysis.Monitor.create ())
      config alloc requests ~faults
  in
  let events = (run ()).Sim.events in
  let name = "defended overload arm, 18,000 requests, monitored" in
  match
    estimates ~quota:2. [ monotonic_clock; minor_allocated; promoted ] name
      (fun () -> ignore (run ()))
  with
  | [ ns; words; promoted ] ->
      let per x = x /. float_of_int events in
      Fmt.pr "  %-52s %8.1f ns %6.1f words %6.1f promoted /event@." name
        (per ns) (per words) (per promoted)
  | _ -> assert false

(* The executor on joins that produce rows: the 19 TPC-H queries, parsed
   once, on a linked database at sf-0.001 row counts (every foreign key
   names a row; Datagen's data leaves nearly every join empty).  Reports
   wall time and minor-heap words per query set. *)
let executor_benchmark () =
  let open Bechamel.Toolkit.Instance in
  let module Tpch = Cdbs_workloads.Tpch in
  let db =
    Tpch.linked_database ~rng:(Cdbs_util.Rng.create 1)
      ~rows:(Tpch.row_counts ~sf:0.001)
  in
  let statements =
    List.map
      (fun (_, sql) -> Cdbs_sql.Parser.parse sql)
      Cdbs_workloads.Tpch_queries.all
  in
  let name = "19 TPC-H queries on linked sf-0.001 data" in
  let run () =
    List.iter
      (fun st ->
        match Cdbs_storage.Executor.execute db st with
        | Ok _ -> ()
        | Error e -> failwith e)
      statements
  in
  match estimates ~quota:5. [ monotonic_clock; minor_allocated ] name run with
  | [ ns; words ] ->
      Fmt.pr "  %-52s %12.1f us %8.2f M words /query set@." name (ns /. 1e3)
        (words /. 1e6)
  | _ -> assert false

(* Arrival ordering at the sizes the benchmark replays: a [day] window
   (8,000 requests over half an hour) and the [overload] stream (180,000
   over 600 s).  [Stats.stable_order] orders unboxed keys drawn as the
   generator draws them; [List.stable_sort] of the same requests by arrival
   is what the engine ran on every open-mode call before streams came
   sorted; the sorted-list check is all it runs on a generated stream, and
   its row also reports the minor-heap words a check allocates. *)
let arrival_order_benchmarks () =
  let module Spec = Cdbs_workloads.Spec in
  let module Request = Cdbs_cluster.Request in
  let specs = Cdbs_workloads.Trace.specs_at ~hour:14. in
  List.iter
    (fun (n, span) ->
      let rng = Cdbs_util.Rng.create 42 in
      let drawn =
        Spec.requests ~rng ~n specs
        |> List.map (fun (r : Request.t) ->
               { r with Request.arrival = Cdbs_util.Rng.float rng span })
      in
      let keys =
        Float.Array.of_list
          (List.map (fun (r : Request.t) -> r.Request.arrival) drawn)
      in
      let by_arrival (a : Request.t) (b : Request.t) =
        Float.compare a.Request.arrival b.Request.arrival
      in
      microbenchmark (Fmt.str "Stats.stable_order, %d arrival keys" n)
        (fun () -> ignore (Cdbs_util.Stats.stable_order keys));
      microbenchmark (Fmt.str "List.stable_sort by arrival, %d requests" n)
        (fun () -> ignore (List.stable_sort by_arrival drawn));
      let sorted = List.stable_sort by_arrival drawn in
      let name = Fmt.str "sorted-list check, %d requests in order" n in
      let check () = ignore (Cdbs_cluster.Simulator.sorted_by_arrival sorted) in
      let open Bechamel.Toolkit.Instance in
      match estimates [ monotonic_clock; minor_allocated ] name check with
      | [ ns; words ] ->
          Fmt.pr "  %-52s %12.1f us %8.1f words /run@." name (ns /. 1e3) words
      | _ -> assert false)
    [ (8_000, 1800.); (180_000, 600.) ]

let microbenchmarks () =
  E.Common.header "Micro-benchmarks (Bechamel, one Test.make per row)";
  let column_workload = Cdbs_workloads.Tpch.workload ~granularity:`Column ~sf:1. in
  let table_workload = Cdbs_workloads.Tpcapp.workload ~granularity:`Table ~eb:300 in
  let backends = Cdbs_core.Backend.homogeneous 8 in
  microbenchmark "greedy allocation (TPC-H column, 8 nodes)" (fun () ->
      ignore (Cdbs_core.Greedy.allocate column_workload backends));
  microbenchmark "memetic generation (TPC-App table, 8 nodes)" (fun () ->
      let rng = Cdbs_util.Rng.create 3 in
      let params =
        {
          Cdbs_core.Memetic.default_params with
          Cdbs_core.Memetic.iterations = 1;
          population = 6;
        }
      in
      ignore (Cdbs_core.Memetic.allocate ~params ~rng table_workload backends));
  microbenchmark "hungarian matching 24x24" (fun () ->
      let rng = Cdbs_util.Rng.create 7 in
      let cost =
        Array.init 24 (fun _ ->
            Array.init 24 (fun _ -> Cdbs_util.Rng.float rng 100.))
      in
      ignore (Cdbs_lp.Hungarian.solve cost));
  microbenchmark "simplex 10 vars / 20 rows" (fun () ->
      let rows =
        List.init 20 (fun i ->
            Cdbs_lp.Simplex.row
              [ (i mod 10, 1.); ((i + 3) mod 10, 2.) ]
              Cdbs_lp.Simplex.Le
              (10. +. float_of_int i))
      in
      let p =
        { Cdbs_lp.Simplex.num_vars = 10; objective = Array.make 10 (-1.); rows }
      in
      ignore (Cdbs_lp.Simplex.solve p));
  microbenchmark "classification of a 200-entry SQL journal" (fun () ->
      let journal = Cdbs_core.Journal.create () in
      for i = 0 to 199 do
        Cdbs_core.Journal.record journal
          ~sql:
            (Printf.sprintf
               "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey \
                = %d"
               (i mod 7))
          ~cost:1.
      done;
      let schema = Cdbs_workloads.Tpch.schema in
      let size_of =
        Cdbs_core.Classification.default_sizes ~schema
          ~rows:(Cdbs_workloads.Tpch.row_counts ~sf:1.)
      in
      ignore
        (Cdbs_core.Classification.classify ~schema ~size_of
           Cdbs_core.Classification.By_column journal));
  microbenchmark "cluster simulation of 2000 requests (8 nodes)" (fun () ->
      let rng = Cdbs_util.Rng.create 11 in
      let alloc =
        Cdbs_core.Greedy.allocate table_workload backends
      in
      let reqs =
        Cdbs_workloads.Tpcapp.requests ~rng ~granularity:`Table ~eb:300
          ~n:2000
      in
      ignore (E.Common.simulate alloc reqs));
  arrival_order_benchmarks ();
  trace_benchmark ();
  defended_arm_benchmark ();
  executor_benchmark ()

let () =
  match Array.to_list Sys.argv with
  | [ _ ] | [ _; "micro" ] -> microbenchmarks ()
  | _ ->
      prerr_endline
        "usage: main.exe [micro]  (paper sections: cdbs experiment SECTION)";
      exit 2
