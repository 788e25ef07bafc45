(* Bechamel micro-benchmarks of the allocation machinery.  The paper's
   tables and figures are sections of `cdbs experiment` (`all` runs every
   one).

   Usage: main.exe [micro] *)

module E = Cdbs_experiments

let microbenchmark name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.iter
    (fun elt ->
      let result = Benchmark.run cfg [ instance ] elt in
      let estimate =
        match Analyze.OLS.estimates (Analyze.one ols instance result) with
        | Some (t :: _) -> t
        | _ -> nan
      in
      Fmt.pr "  %-52s %12.1f us/run@." (Test.Elt.name elt) (estimate /. 1e3))
    (Test.elements test)

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
      ignore (E.Common.simulate alloc reqs))

let () =
  match Array.to_list Sys.argv with
  | [ _ ] | [ _; "micro" ] -> microbenchmarks ()
  | _ ->
      prerr_endline
        "usage: main.exe [micro]  (paper sections: cdbs experiment SECTION)";
      exit 2
