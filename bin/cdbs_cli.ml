(* cdbs — command-line front end to the query-centric allocation library.

   Subcommands:
     classify    classify a SQL journal file into query classes
     allocate    compute an allocation for a journal or built-in workload
     simulate    simulate a workload on a cluster and report throughput
     experiment  run one of the paper-reproduction experiment sections *)

open Cmdliner

module Core = Cdbs_core

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

let builtin_workload name granularity =
  match name with
  | "tpch" -> Ok (Cdbs_workloads.Tpch.workload ~granularity ~sf:1.)
  | "tpcapp" -> Ok (Cdbs_workloads.Tpcapp.workload ~granularity ~eb:300)
  | "trace" -> Ok (Cdbs_workloads.Trace.workload_at ~hour:12.)
  | other -> Error (`Msg ("unknown built-in workload " ^ other))

let granularity_conv =
  Arg.enum [ ("table", `Table); ("column", `Column) ]

let granularity_arg =
  Arg.(
    value
    & opt granularity_conv `Table
    & info [ "g"; "granularity" ] ~docv:"GRANULARITY"
        ~doc:"Classification granularity: $(b,table) or $(b,column).")

let backends_arg =
  Arg.(
    value & opt int 4
    & info [ "n"; "backends" ] ~docv:"N" ~doc:"Number of backends.")

let loads_arg =
  Arg.(
    value
    & opt (list float) []
    & info [ "loads" ] ~docv:"L1,L2,..."
        ~doc:
          "Relative backend performances for a heterogeneous cluster \
           (overrides $(b,--backends)).")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed for the memetic search.")

let make_backends n loads =
  if loads = [] then Core.Backend.homogeneous n
  else Core.Backend.heterogeneous loads

let print_workload w =
  Fmt.pr "%a@." Core.Workload.pp w;
  Fmt.pr "total weight: %.4f, fragments: %d (%.1f MB)@."
    (Core.Workload.total_weight w)
    (Core.Fragment.Set.cardinal (Core.Workload.fragments w))
    (Core.Fragment.set_size (Core.Workload.fragments w))

let print_allocation alloc =
  Fmt.pr "%a@." Core.Allocation.pp_allocation_matrix alloc;
  Fmt.pr "%a@." Core.Allocation.pp_load_matrix alloc;
  Fmt.pr
    "scale %.4f, predicted speedup %.2f, degree of replication %.2f, stored \
     %.1f MB@."
    (Core.Allocation.scale alloc)
    (Core.Allocation.speedup alloc)
    (Core.Replication.degree alloc)
    (Core.Allocation.total_stored alloc)

(* ------------------------------------------------------------------ *)
(* classify                                                            *)
(* ------------------------------------------------------------------ *)

let classify_cmd =
  let journal_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"JOURNAL" ~doc:"Journal file (one SQL statement per line).")
  in
  let schema_arg =
    Arg.(
      value
      & opt (enum [ ("none", `None); ("tpch", `Tpch); ("tpcapp", `Tpcapp); ("trace", `Trace) ]) `None
      & info [ "schema" ] ~docv:"SCHEMA"
          ~doc:
            "Schema used to resolve unqualified columns and size fragments: \
             $(b,tpch), $(b,tpcapp), $(b,trace) or $(b,none).  Column \
             granularity on multi-table statements needs a schema.")
  in
  let run path granularity schema_name =
    let journal =
      match Core.Journal.load_file path with
      | Ok j -> j
      | Error e -> prerr_endline e; exit 1
    in
    let schema, rows =
      match schema_name with
      | `None -> ([], [])
      | `Tpch ->
          (Cdbs_workloads.Tpch.schema, Cdbs_workloads.Tpch.row_counts ~sf:1.)
      | `Tpcapp ->
          ( Cdbs_workloads.Tpcapp.schema,
            Cdbs_workloads.Tpcapp.row_counts ~eb:300 )
      | `Trace ->
          (Cdbs_workloads.Trace.schema, Cdbs_workloads.Trace.row_counts)
    in
    (* Without a known schema, every fragment counts as 1 MB. *)
    let size_of =
      if schema = [] then fun _ -> 1.
      else Core.Classification.default_sizes ~schema ~rows
    in
    let g =
      match granularity with
      | `Table -> Core.Classification.By_table
      | `Column -> Core.Classification.By_column
    in
    let w = Core.Classification.classify ~schema ~size_of g journal in
    Fmt.pr "journal: %d entries, %d distinct statements@."
      (Core.Journal.length journal)
      (List.length (Core.Journal.occurrences journal));
    if granularity = `Column && schema = [] then
      Fmt.pr
        "note: no schema given — unqualified columns of multi-table \
         statements cannot be attributed and such statements are skipped \
         (pass --schema).@.";
    print_workload w
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Classify a SQL journal into query classes")
    Term.(const run $ journal_arg $ granularity_arg $ schema_arg)

(* ------------------------------------------------------------------ *)
(* allocate                                                            *)
(* ------------------------------------------------------------------ *)

let algorithm_conv =
  Arg.enum [ ("greedy", `Greedy); ("memetic", `Memetic); ("optimal", `Optimal) ]

let allocate_cmd =
  let workload_arg =
    Arg.(
      value & opt string "tpch"
      & info [ "w"; "workload" ] ~docv:"WORKLOAD"
          ~doc:"Built-in workload: $(b,tpch), $(b,tpcapp) or $(b,trace).")
  in
  let algorithm_arg =
    Arg.(
      value & opt algorithm_conv `Memetic
      & info [ "a"; "algorithm" ] ~docv:"ALG"
          ~doc:"Allocation algorithm: $(b,greedy), $(b,memetic) or $(b,optimal).")
  in
  let ksafety_arg =
    Arg.(
      value & opt int 0
      & info [ "k" ] ~docv:"K" ~doc:"k-safety degree (0 = none).")
  in
  let run name granularity n loads algorithm seed k =
    match builtin_workload name granularity with
    | Error (`Msg m) -> prerr_endline m; exit 1
    | Ok workload ->
        let backends = make_backends n loads in
        let alloc =
          if k > 0 then Core.Ksafety.allocate ~k workload backends
          else
          match algorithm with
          | `Greedy -> Core.Greedy.allocate workload backends
          | `Memetic ->
              Core.Memetic.allocate ~rng:(Cdbs_util.Rng.create seed) workload
                backends
          | `Optimal -> (
              match
                Core.Optimal.allocate (Core.Optimal.coarsen workload) backends
              with
              | Ok r ->
                  Fmt.pr "optimal scale %.4f (proved: %b)@." r.Core.Optimal.scale
                    r.Core.Optimal.proved_optimal;
                  r.Core.Optimal.allocation
              | Error e -> prerr_endline e; exit 1)
        in
        print_allocation alloc;
        (* Exit 1 on a structural error or a placement short of k-safety. *)
        let errors =
          Cdbs_analysis.Diagnostic.errors
            (Cdbs_analysis.Check_allocation.check alloc)
        in
        if errors <> [] then begin
          Fmt.epr "%a@." Cdbs_analysis.Diagnostic.pp_report errors;
          exit 1
        end;
        if k > 0 then begin
          let safe = Core.Ksafety.is_k_safe ~k alloc in
          Fmt.pr "k-safe for k=%d: %b@." k safe;
          if not safe then exit 1
        end
  in
  Cmd.v
    (Cmd.info "allocate" ~doc:"Compute a partial-replication allocation")
    Term.(
      const run $ workload_arg $ granularity_arg $ backends_arg $ loads_arg
      $ algorithm_arg $ seed_arg $ ksafety_arg)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let simulate_cmd =
  let workload_arg =
    Arg.(
      value & opt string "tpch"
      & info [ "w"; "workload" ] ~docv:"WORKLOAD"
          ~doc:"Built-in workload: $(b,tpch) or $(b,tpcapp).")
  in
  let strategy_conv =
    Arg.enum
      [
        ("full", Cdbs_experiments.Common.Full_replication);
        ("table", Cdbs_experiments.Common.Table_based);
        ("column", Cdbs_experiments.Common.Column_based);
        ("random", Cdbs_experiments.Common.Random_placement);
      ]
  in
  let strategy_arg =
    Arg.(
      value & opt strategy_conv Cdbs_experiments.Common.Table_based
      & info [ "s"; "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Allocation strategy: $(b,full), $(b,table), $(b,column) or \
             $(b,random).")
  in
  let requests_arg =
    Arg.(
      value & opt int 2000
      & info [ "r"; "requests" ] ~docv:"N" ~doc:"Requests to simulate.")
  in
  let run name strategy n loads requests seed =
    let rng = Cdbs_util.Rng.create seed in
    let backends = make_backends n loads in
    let table_workload, column_workload, reqs =
      match name with
      | "tpcapp" ->
          ( Cdbs_workloads.Tpcapp.workload ~granularity:`Table ~eb:300,
            Cdbs_workloads.Tpcapp.workload ~granularity:`Column ~eb:300,
            Cdbs_workloads.Tpcapp.requests ~rng ~granularity:`Table ~eb:300
              ~n:requests )
      | _ ->
          ( Cdbs_workloads.Tpch.workload ~granularity:`Table ~sf:1.,
            Cdbs_workloads.Tpch.workload ~granularity:`Column ~sf:1.,
            Cdbs_workloads.Tpch.requests ~rng ~sf:1. ~n:requests )
    in
    let alloc =
      Cdbs_experiments.Common.allocate ~rng strategy ~table_workload
        ~column_workload backends
    in
    let outcome = Cdbs_experiments.Common.simulate alloc reqs in
    print_allocation alloc;
    Fmt.pr
      "simulated %d requests: throughput %.2f q/s, makespan %.2f s, avg \
       response %.4f s, errors %d@."
      outcome.Cdbs_cluster.Simulator.completed
      outcome.Cdbs_cluster.Simulator.throughput
      outcome.Cdbs_cluster.Simulator.makespan
      outcome.Cdbs_cluster.Simulator.avg_response
      outcome.Cdbs_cluster.Simulator.errors;
    Fmt.pr "utilization:";
    Array.iter
      (fun u -> Fmt.pr " %.2f" u)
      outcome.Cdbs_cluster.Simulator.utilization;
    Fmt.pr "@."
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate a workload on a CDBS cluster")
    Term.(
      const run $ workload_arg $ strategy_arg $ backends_arg $ loads_arg
      $ requests_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)
(* ------------------------------------------------------------------ *)

let experiment_cmd =
  let section_arg =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("tables", `Tables); ("tpch", `Tpch); ("tpcapp", `Tpcapp);
                  ("balance", `Balance); ("elastic", `Elastic);
                  ("ablation", `Ablation); ("migration", `Migration);
                  ("faults", `Faults); ("overload", `Overload);
                  ("day", `Day); ("zones", `Zones);
                ]))
          None
      & info [] ~docv:"SECTION"
          ~doc:
            "Experiment section: $(b,tables), $(b,tpch), $(b,tpcapp), \
             $(b,balance), $(b,elastic), $(b,ablation), $(b,migration), \
             $(b,faults), $(b,overload), $(b,day) or $(b,zones).")
  in
  let run = function
    | `Tables -> Cdbs_experiments.Tables.print_all ()
    | `Tpch -> Cdbs_experiments.Fig_tpch.print_all ()
    | `Tpcapp -> Cdbs_experiments.Fig_tpcapp.print_all ()
    | `Balance -> Cdbs_experiments.Fig_balance.print_all ()
    | `Elastic -> Cdbs_experiments.Fig_elastic.print_all ()
    | `Ablation -> Cdbs_experiments.Ablation.print_all ()
    | `Migration -> Cdbs_experiments.Fig_migration.print_all ()
    | `Faults -> Cdbs_experiments.Fig_faults.print_all ()
    | `Overload -> Cdbs_experiments.Fig_overload.print_all ()
    | `Day -> Cdbs_experiments.Fig_day.print_all ()
    | `Zones -> Cdbs_experiments.Fig_zones.print_all ()
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run a paper-reproduction experiment section")
    Term.(const run $ section_arg)

(* ------------------------------------------------------------------ *)
(* migrate                                                             *)
(* ------------------------------------------------------------------ *)

let migrate_cmd =
  let from_hour_arg =
    Arg.(
      value & opt float 4.
      & info [ "from-hour" ] ~docv:"H"
          ~doc:"Hour of day whose mix the cluster is currently allocated for.")
  in
  let to_hour_arg =
    Arg.(
      value & opt float 14.
      & info [ "to-hour" ] ~docv:"H"
          ~doc:"Hour of day whose mix to rebalance towards.")
  in
  let bandwidth_arg =
    Arg.(
      value & opt float 2.
      & info [ "b"; "bandwidth" ] ~docv:"MB/S"
          ~doc:"Copy throttle per stream in MB/s.")
  in
  let rate_arg =
    Arg.(
      value & opt float 40.
      & info [ "rate" ] ~docv:"R" ~doc:"Offered load in requests per second.")
  in
  let duration_arg =
    Arg.(
      value & opt float 600.
      & info [ "duration" ] ~docv:"S" ~doc:"Simulated seconds.")
  in
  let at_arg =
    Arg.(
      value & opt float 150.
      & info [ "at" ] ~docv:"S" ~doc:"When the rebalance starts.")
  in
  let show_plan_arg =
    Arg.(
      value & flag
      & info [ "show-plan" ]
          ~doc:"Print the ordered per-fragment copy/drop plan.")
  in
  let run nodes from_hour to_hour bandwidth rate duration at show_plan seed =
    let module Fm = Cdbs_experiments.Fig_migration in
    if bandwidth <= 0. then begin
      prerr_endline "migrate: --bandwidth must be positive";
      exit 1
    end;
    if show_plan then begin
      let plan = Fm.plan ~nodes ~from_hour ~to_hour () in
      Fmt.pr "%a@." Cdbs_migration.Planner.pp plan;
      Fmt.pr "%a@." Cdbs_migration.Schedule.pp
        (Cdbs_migration.Schedule.make ~start:at ~bandwidth plan)
    end;
    let r =
      Fm.scenario ~nodes ~bandwidth ~rate_per_s:rate ~duration ~migrate_at:at
        ~seed ~from_hour ~to_hour ()
    in
    Fmt.pr "%10s%10s%12s%8s  %s@." "from(s)" "to(s)" "resp(ms)" "req" "phase";
    List.iter
      (fun (p : Fm.point) ->
        Fmt.pr "%10.0f%10.0f%12.2f%8d  %s@." p.Fm.t0 p.Fm.t1 p.Fm.avg_ms
          p.Fm.n p.Fm.phase)
      r.Fm.timeline;
    Fmt.pr
      "copy phase %.0fs - %.0fs; response before %.2f ms, during %.2f ms, \
       after %.2f ms@."
      r.Fm.copy_start r.Fm.copy_done r.Fm.before_ms r.Fm.during_ms
      r.Fm.after_ms;
    Fmt.pr
      "shipped %.1f MB live vs %.1f MB full rebuild; replayed %.2f MB; \
       errors %d; min live replicas %d; target deployed %b@."
      r.Fm.copied_mb r.Fm.full_rebuild_mb r.Fm.replayed_mb r.Fm.errors
      r.Fm.min_live_replicas r.Fm.target_deployed;
    (* A live rebalance must serve every request, keep every class on a
       live replica and end on the target placement. *)
    let failures =
      List.filter_map
        (fun (bad, msg) -> if bad then Some msg else None)
        [
          (r.Fm.errors > 0, Printf.sprintf "%d routing errors" r.Fm.errors);
          (r.Fm.min_live_replicas < 1, "a class lost its last live replica");
          (not r.Fm.target_deployed, "the target placement was not deployed");
        ]
    in
    if failures <> [] then begin
      Fmt.epr "migrate: %s@." (String.concat "; " failures);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "migrate"
       ~doc:
         "Rebalance a live cluster between two trace allocations while \
          serving, and report the response-time timeline.  Exits 1 on a \
          routing error, a class left without a live replica, or a target \
          placement that was not deployed")
    Term.(
      const run $ backends_arg $ from_hour_arg $ to_hour_arg $ bandwidth_arg
      $ rate_arg $ duration_arg $ at_arg $ show_plan_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* check — the static plan verifier                                    *)
(* ------------------------------------------------------------------ *)

module Diag = Cdbs_analysis.Diagnostic
module Check_w = Cdbs_analysis.Check_workload
module Check_a = Cdbs_analysis.Check_allocation
module Check_m = Cdbs_analysis.Check_migration

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

type check_result = { scenario : string; diagnostics : Diag.t list }

(* The running example of the paper (Sec. 3, Fig. 2) — the configuration
   examples/quickstart.ml allocates. *)
let quickstart_workload () =
  let a = Core.Fragment.table "A" ~size:1. in
  let b = Core.Fragment.table "B" ~size:1. in
  let c = Core.Fragment.table "C" ~size:1. in
  Core.Workload.make
    ~reads:
      [
        Core.Query_class.read "C1" [ a ] ~weight:0.30;
        Core.Query_class.read "C2" [ b ] ~weight:0.25;
        Core.Query_class.read "C3" [ c ] ~weight:0.25;
        Core.Query_class.read "C4" [ a; b ] ~weight:0.20;
      ]
    ~updates:[]

(* Deliberate corruptions, so users (and CI smoke tests) can confirm the
   verifier actually rejects broken artifacts with coded diagnostics. *)
let inject_allocation_fault fault alloc =
  let workload = Core.Allocation.workload alloc in
  let n = Core.Allocation.num_backends alloc in
  let holds = Core.Allocation.holds alloc in
  match fault with
  | `Locality ->
      let rec find = function
        | [] -> None
        | (c : Core.Query_class.t) :: rest ->
            let rec go b =
              if b >= n then find rest
              else if not (holds b c) then begin
                Core.Allocation.set_assign alloc b c 0.1;
                Some
                  (Printf.sprintf "assigned %s to B%d which lacks its data"
                     c.Core.Query_class.id (b + 1))
              end
              else go (b + 1)
            in
            go 0
      in
      find workload.Core.Workload.reads
  | `Read_sum ->
      let rec find = function
        | [] -> None
        | (c : Core.Query_class.t) :: rest ->
            let rec go b =
              if b >= n then find rest
              else
                let w = Core.Allocation.get_assign alloc b c in
                if w > 1e-6 then begin
                  Core.Allocation.set_assign alloc b c (w /. 2.);
                  Some
                    (Printf.sprintf "halved %s's share on B%d"
                       c.Core.Query_class.id (b + 1))
                end
                else go (b + 1)
            in
            go 0
      in
      find workload.Core.Workload.reads
  | `Unpin ->
      let overlaps b (u : Core.Query_class.t) =
        not
          (Core.Fragment.Set.is_empty
             (Core.Fragment.Set.inter u.Core.Query_class.fragments
                (Core.Allocation.fragments_of alloc b)))
      in
      let rec find = function
        | [] -> None
        | (u : Core.Query_class.t) :: rest ->
            let rec go b =
              if b >= n then find rest
              else if overlaps b u then begin
                Core.Allocation.set_assign alloc b u
                  (u.Core.Query_class.weight /. 2.);
                Some
                  (Printf.sprintf "unpinned update %s on B%d"
                     u.Core.Query_class.id (b + 1))
              end
              else go (b + 1)
            in
            go 0
      in
      find workload.Core.Workload.updates

let inject_plan_fault (plan : Cdbs_migration.Planner.plan) =
  match plan.Cdbs_migration.Planner.moves with
  | [] -> (plan, None)
  | (m : Cdbs_migration.Planner.move) :: _ ->
      (* Drop the fragment at the very backend a copy delivers it to: the
         contract phase now strands the destination short of its target. *)
      let bogus =
        {
          Cdbs_migration.Planner.victim = m.Cdbs_migration.Planner.fragment;
          at_backend = m.Cdbs_migration.Planner.dest;
        }
      in
      ( {
          plan with
          Cdbs_migration.Planner.drops =
            bogus :: plan.Cdbs_migration.Planner.drops;
        },
        Some
          (Printf.sprintf "added a drop of %s at its copy destination B%d"
             (Core.Fragment.name m.Cdbs_migration.Planner.fragment)
             m.Cdbs_migration.Planner.dest) )

let scenario_label name injected =
  match injected with
  | None -> name
  | Some what -> Printf.sprintf "%s [injected fault: %s]" name what

(* Lint a workload and verify the allocation an algorithm produces for it. *)
let check_allocation_scenario ~name ?schema ?(k = 0) ?topology ~workload
    ~alloc ~fault () =
  let workload_diags = Check_w.check ?schema workload in
  let injected =
    match fault with Some f -> inject_allocation_fault f alloc | None -> None
  in
  let alloc_diags = Check_a.check ~k ?topology alloc in
  {
    scenario = scenario_label name injected;
    diagnostics = workload_diags @ alloc_diags;
  }

let check_migration_scenario ~name ~nodes ~from_hour ~to_hour ~bandwidth
    ~corrupt () =
  let target_workload = Cdbs_workloads.Trace.workload_at ~hour:to_hour in
  let plan =
    Cdbs_experiments.Fig_migration.plan ~nodes ~from_hour ~to_hour ()
  in
  let plan, injected = if corrupt then inject_plan_fault plan else (plan, None) in
  let plan_diags = Check_m.check_plan ~workload:target_workload plan in
  let schedule_diags =
    Check_m.check_schedule (Cdbs_migration.Schedule.make ~bandwidth plan)
  in
  {
    scenario = scenario_label name injected;
    diagnostics = plan_diags @ schedule_diags;
  }

let check_cmd =
  let workload_arg =
    Arg.(
      value & opt string "all"
      & info [ "w"; "workload" ] ~docv:"WORKLOAD"
          ~doc:
            "What to verify: $(b,all) (the shipped example scenarios), or a \
             single built-in workload $(b,quickstart), $(b,tpch), \
             $(b,tpcapp), $(b,trace), $(b,timeseries), $(b,zones) or \
             $(b,migration).")
  in
  let algorithm_arg =
    Arg.(
      value & opt algorithm_conv `Greedy
      & info [ "a"; "algorithm" ] ~docv:"ALG"
          ~doc:"Allocation algorithm for single-workload checks.")
  in
  let ksafety_arg =
    Arg.(
      value & opt int 0
      & info [ "k" ] ~docv:"K" ~doc:"k-safety degree to verify against.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the diagnostics as machine-readable JSON.")
  in
  let inject_conv =
    Arg.enum
      [
        ("none", `None); ("locality", `Locality); ("read-sum", `Read_sum);
        ("unpin", `Unpin); ("lost-replica", `Lost_replica);
      ]
  in
  let inject_arg =
    Arg.(
      value & opt inject_conv `None
      & info [ "inject" ] ~docv:"FAULT"
          ~doc:
            "Deliberately corrupt the checked artifact before verifying — \
             proves the verifier rejects it.  $(b,locality), $(b,read-sum) \
             and $(b,unpin) corrupt the allocation; $(b,lost-replica) \
             corrupts the migration plan.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Exit non-zero on warnings too, not just errors — the CI lint \
             gate.")
  in
  let run name granularity n loads algorithm seed k json strict inject =
    (* The verifier reports; it must not trip the in-algorithm assertions
       installed by the experiments harness before it can do so. *)
    Core.Invariants.disable ();
    let rng () = Cdbs_util.Rng.create seed in
    let backends = make_backends n loads in
    let memetic_params =
      {
        Core.Memetic.default_params with
        Core.Memetic.iterations = 20;
        population = 8;
      }
    in
    let allocate ?(alg = algorithm) ?(k = 0) workload bs =
      if k > 0 then Core.Ksafety.allocate ~k workload bs
      else
        match alg with
        | `Greedy -> Core.Greedy.allocate workload bs
        | `Memetic | `Optimal ->
            Core.Memetic.allocate ~params:memetic_params ~rng:(rng ()) workload
              bs
    in
    let alloc_fault =
      match inject with
      | `Locality -> Some `Locality
      | `Read_sum -> Some `Read_sum
      | `Unpin -> Some `Unpin
      | `None | `Lost_replica -> None
    in
    let corrupt_plan = inject = `Lost_replica in
    let quickstart_scenario ~fault () =
      let workload = quickstart_workload () in
      check_allocation_scenario ~name:"quickstart (paper Sec. 3 example)"
        ~workload
        ~alloc:(allocate ~alg:`Greedy workload (Core.Backend.homogeneous 4))
        ~fault ()
    in
    let builtin ~name ~schema ~workload ~alg ?(k = 0) ?(bs = backends) ~fault
        () =
      check_allocation_scenario ~name
        ~schema:(Cdbs_storage.Schema.to_assoc schema)
        ~k ~workload
        ~alloc:(allocate ~alg ~k workload bs)
        ~fault ()
    in
    let migration ~corrupt () =
      check_migration_scenario
        ~name:"live migration (trace 4h -> 14h, 2 MB/s)" ~nodes:n
        ~from_hour:4. ~to_hour:14. ~bandwidth:2. ~corrupt ()
    in
    let zones_scenario ~fault () =
      (* Domain-aware k-safety verified against the topology that built it
         (ALC013/ALC014): 6 backends in 2 contiguous racks. *)
      let workload = Cdbs_workloads.Trace.workload_at ~hour:14. in
      let nodes = 6 in
      let topology =
        Core.Topology.make (Array.init nodes (fun b -> b * 2 / nodes))
      in
      check_allocation_scenario
        ~name:"zones (trace 14h, k=1, 6 backends in 2 racks)"
        ~schema:(Cdbs_storage.Schema.to_assoc Cdbs_workloads.Trace.schema)
        ~k:1 ~topology ~workload
        ~alloc:
          (Core.Ksafety.allocate ~topology ~k:1 workload
             (Core.Backend.homogeneous nodes))
        ~fault ()
    in
    let results =
      match name with
      | "quickstart" -> [ quickstart_scenario ~fault:alloc_fault () ]
      | "tpch" ->
          [
            builtin ~name:"tpch" ~schema:Cdbs_workloads.Tpch.schema
              ~workload:(Cdbs_workloads.Tpch.workload ~granularity ~sf:1.)
              ~alg:algorithm ~fault:alloc_fault ();
          ]
      | "tpcapp" ->
          [
            builtin ~name:"tpcapp" ~schema:Cdbs_workloads.Tpcapp.schema
              ~workload:(Cdbs_workloads.Tpcapp.workload ~granularity ~eb:300)
              ~alg:algorithm ~k ~fault:alloc_fault ();
          ]
      | "trace" ->
          [
            builtin ~name:"trace (12h)" ~schema:Cdbs_workloads.Trace.schema
              ~workload:(Cdbs_workloads.Trace.workload_at ~hour:12.)
              ~alg:algorithm ~k ~fault:alloc_fault ();
          ]
      | "timeseries" ->
          [
            builtin ~name:"timeseries (horizontal partitioning)"
              ~schema:Cdbs_workloads.Timeseries.schema
              ~workload:
                (Cdbs_workloads.Timeseries.workload ~granularity:`Predicate
                   ~rng:(rng ()) ~n:2000)
              ~alg:algorithm ~fault:alloc_fault ();
          ]
      | "zones" -> [ zones_scenario ~fault:alloc_fault () ]
      | "migration" -> [ migration ~corrupt:corrupt_plan () ]
      | "all" ->
          (* The shipped example configurations (examples/*.ml), each
             verified end to end. *)
          [
            quickstart_scenario ~fault:alloc_fault ();
            builtin ~name:"tpch table greedy n=4"
              ~schema:Cdbs_workloads.Tpch.schema
              ~workload:(Cdbs_workloads.Tpch.workload ~granularity:`Table ~sf:1.)
              ~alg:`Greedy ~fault:None ();
            builtin ~name:"tpch column memetic n=6"
              ~schema:Cdbs_workloads.Tpch.schema
              ~workload:
                (Cdbs_workloads.Tpch.workload ~granularity:`Column ~sf:1.)
              ~alg:`Memetic
              ~bs:(Core.Backend.homogeneous 6)
              ~fault:None ();
            builtin ~name:"tpcapp table memetic n=8"
              ~schema:Cdbs_workloads.Tpcapp.schema
              ~workload:
                (Cdbs_workloads.Tpcapp.workload ~granularity:`Table ~eb:300)
              ~alg:`Memetic
              ~bs:(Core.Backend.homogeneous 8)
              ~fault:None ();
            builtin ~name:"tpcapp column greedy n=4"
              ~schema:Cdbs_workloads.Tpcapp.schema
              ~workload:
                (Cdbs_workloads.Tpcapp.workload ~granularity:`Column ~eb:300)
              ~alg:`Greedy ~fault:None ();
            builtin ~name:"trace night (4h) greedy n=4"
              ~schema:Cdbs_workloads.Trace.schema
              ~workload:(Cdbs_workloads.Trace.workload_at ~hour:4.)
              ~alg:`Greedy ~fault:None ();
            builtin ~name:"trace midday (14h) greedy n=4"
              ~schema:Cdbs_workloads.Trace.schema
              ~workload:(Cdbs_workloads.Trace.workload_at ~hour:14.)
              ~alg:`Greedy ~fault:None ();
            builtin ~name:"ksafety tpcapp k=1 n=4"
              ~schema:Cdbs_workloads.Tpcapp.schema
              ~workload:
                (Cdbs_workloads.Tpcapp.workload ~granularity:`Table ~eb:300)
              ~alg:`Greedy ~k:1 ~fault:None ();
            builtin ~name:"timeseries predicate greedy n=4"
              ~schema:Cdbs_workloads.Timeseries.schema
              ~workload:
                (Cdbs_workloads.Timeseries.workload ~granularity:`Predicate
                   ~rng:(rng ()) ~n:2000)
              ~alg:`Greedy ~fault:None ();
            zones_scenario ~fault:None ();
            migration ~corrupt:false ();
          ]
      | other ->
          prerr_endline ("check: unknown workload " ^ other);
          exit 2
    in
    if json then begin
      let objects =
        List.map
          (fun r ->
            Printf.sprintf "{\"scenario\":%s,\"summary\":%s,\"diagnostics\":%s}"
              (json_string r.scenario)
              (json_string (Diag.summary r.diagnostics))
              (Diag.list_to_json r.diagnostics))
          results
      in
      print_string ("[" ^ String.concat "," objects ^ "]\n")
    end
    else
      List.iter
        (fun r ->
          Fmt.pr "=== %s ===@.%a" r.scenario Diag.pp_report r.diagnostics)
        results;
    let total_errors =
      List.fold_left
        (fun acc r -> acc + List.length (Diag.errors r.diagnostics))
        0 results
    in
    let total_warnings =
      List.fold_left
        (fun acc r -> acc + List.length (Diag.warnings r.diagnostics))
        0 results
    in
    if not json then
      Fmt.pr "@.checked %d scenario%s: %d error%s, %d warning%s@."
        (List.length results)
        (if List.length results = 1 then "" else "s")
        total_errors
        (if total_errors = 1 then "" else "s")
        total_warnings
        (if total_warnings = 1 then "" else "s");
    if total_errors > 0 || (strict && total_warnings > 0) then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically verify allocations, migration plans and workloads \
          against the paper's structural invariants (Eqs. 8-11, 14-15, \
          k-safety, expand-then-contract)")
    Term.(
      const run $ workload_arg $ granularity_arg $ backends_arg $ loads_arg
      $ algorithm_arg $ seed_arg $ ksafety_arg $ json_arg $ strict_arg
      $ inject_arg)

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let mtbf_arg =
    Arg.(
      value & opt float 120.
      & info [ "mtbf" ] ~docv:"SECONDS"
          ~doc:"Mean time between failures per backend.")
  in
  let mttr_arg =
    Arg.(
      value & opt float 25.
      & info [ "mttr" ] ~docv:"SECONDS" ~doc:"Mean time to recovery.")
  in
  let duration_arg =
    Arg.(
      value & opt float 600.
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Run length (also the fault-injection horizon).")
  in
  let rate_arg =
    Arg.(
      value & opt float 20.
      & info [ "rate" ] ~docv:"REQ/S" ~doc:"Offered request rate.")
  in
  let k_arg =
    Arg.(
      value & opt int 1
      & info [ "k" ] ~docv:"K"
          ~doc:"k-safety degree of the allocation under test.")
  in
  let max_down_arg =
    Arg.(
      value & opt (some int) None
      & info [ "max-down" ] ~docv:"N"
          ~doc:
            "Cap on simultaneously crashed backends (incidents beyond the \
             cap are dropped).  Keep it at or below $(b,--k) to test the \
             regime the allocation is built to absorb.")
  in
  let min_avail_arg =
    Arg.(
      value & opt float 0.
      & info [ "min-availability" ] ~docv:"FRACTION"
          ~doc:
            "Exit non-zero when availability (completed / offered) falls \
             below this threshold — the CI smoke-test hook.")
  in
  let zones_arg =
    Arg.(
      value & opt int 1
      & info [ "zones" ] ~docv:"Z"
          ~doc:
            "Fault domains the backends are spread over (round-robin).  \
             With more than one zone the allocation is built domain-aware \
             and correlated faults resolve zone membership.")
  in
  let correlated_mtbf_arg =
    Arg.(
      value & opt (some float) None
      & info [ "correlated-mtbf" ] ~docv:"SECONDS"
          ~doc:
            "Mean time between correlated (whole-zone) incidents: network \
             partitions and zone outages.  Off by default.")
  in
  let partition_prob_arg =
    Arg.(
      value & opt float 0.5
      & info [ "partition-prob" ] ~docv:"P"
          ~doc:
            "Probability a correlated incident is a network partition \
             (isolation + fenced heal) rather than a zone outage (crash).")
  in
  let monitor_gate_arg =
    Arg.(
      value & flag
      & info [ "monitor" ]
          ~doc:
            "Exit non-zero on any protocol-monitor violation (violations \
             are always counted and reported).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the outcome as machine-readable JSON.")
  in
  let run n seed mtbf mttr duration rate k max_down min_avail zones
      correlated_mtbf partition_prob monitor_gate json =
    let module Faults = Cdbs_faults in
    let module Sim = Cdbs_cluster.Simulator in
    let module Mon = Cdbs_analysis.Monitor in
    let module Tel = Cdbs_telemetry in
    let workload = Cdbs_workloads.Trace.workload_at ~hour:14. in
    let topology =
      if zones > 1 then Some (Core.Topology.uniform ~zones n) else None
    in
    let alloc =
      Core.Ksafety.allocate ?topology ~k workload (Core.Backend.homogeneous n)
    in
    let rng = Cdbs_util.Rng.create seed in
    let faults =
      Faults.Chaos.generate ~rng ~num_backends:n
        {
          Faults.Chaos.default with
          Faults.Chaos.mtbf;
          mttr;
          horizon = duration;
          max_concurrent_down = max_down;
          correlated_mtbf;
          partition_prob;
          zones;
        }
    in
    let reqs =
      List.map
        (fun (r : Cdbs_cluster.Request.t) ->
          { r with Cdbs_cluster.Request.arrival = Cdbs_util.Rng.float rng duration })
        (Cdbs_workloads.Spec.requests ~rng
           ~n:(int_of_float (rate *. duration))
           (Cdbs_workloads.Trace.specs_at ~hour:14.))
    in
    let config = Sim.homogeneous_config n in
    let sink = Tel.Sink.create () in
    let monitor = Mon.create () in
    let fo =
      Sim.run_open_with_faults ~telemetry:sink ~monitor ?topology config alloc
        reqs ~faults
    in
    let count p = List.length (List.filter p faults) in
    let crashes =
      count (fun (t : Faults.Fault.timed) ->
          match t.Faults.Fault.event with
          | Faults.Fault.Crash _ -> true
          | _ -> false)
    in
    let partitions =
      count (fun (t : Faults.Fault.timed) ->
          match t.Faults.Fault.event with
          | Faults.Fault.Partition _ -> true
          | _ -> false)
    in
    let zone_outages =
      count (fun (t : Faults.Fault.timed) ->
          match t.Faults.Fault.event with
          | Faults.Fault.ZoneOutage _ -> true
          | _ -> false)
    in
    let trace_dropped = Tel.Trace.dropped sink.Tel.Sink.trace in
    let p50_ms = 1000. *. fo.Sim.run.Sim.p50_response in
    let p95_ms = 1000. *. fo.Sim.run.Sim.p95_response in
    let p99_ms = 1000. *. fo.Sim.run.Sim.p99_response in
    let total_downtime = Array.fold_left ( +. ) 0. fo.Sim.downtime in
    let utilization = fo.Sim.run.Sim.utilization in
    let json_floats a =
      String.concat ","
        (Array.to_list (Array.map (Printf.sprintf "%.4f") a))
    in
    (* The control-loop triple is structurally zero here (no loop runs in
       this scenario); the fields are present so the day/chaos/autotune
       JSON payloads share one schema. *)
    if json then
      Printf.printf
        "{\"seed\":%d,\"backends\":%d,\"k\":%d,\"zones\":%d,\"mtbf\":%g,\
         \"mttr\":%g,\
         \"duration\":%g,\"rate\":%g,\"fault_events\":%d,\"crashes\":%d,\
         \"partitions\":%d,\"zone_outages\":%d,\
         \"offered\":%d,\"completed\":%d,\"availability\":%.6f,\
         \"aborted\":%d,\"timeouts\":%d,\"retried_requests\":%d,\
         \"retries\":%d,\"avg_response_ms\":%.3f,\"p50_response_ms\":%.3f,\
         \"p95_response_ms\":%.3f,\"p99_response_ms\":%.3f,\
         \"utilization\":[%s],\
         \"cancelled_work_s\":%.3f,\"catch_up_mb\":%.3f,\"recoveries\":%d,\
         \"downtime_s\":%.3f,\"max_concurrent_down\":%d,\
         \"trace_dropped\":%d,\"monitor_violations\":%d,\
         \"reallocations\":0,\"rollbacks\":0,\"drift_score\":0}\n"
        seed n k zones mtbf mttr duration rate (List.length faults) crashes
        partitions zone_outages fo.Sim.offered fo.Sim.run.Sim.completed
        fo.Sim.availability fo.Sim.aborted fo.Sim.timeouts
        fo.Sim.retried_requests fo.Sim.retries
        (1000. *. fo.Sim.run.Sim.avg_response)
        p50_ms p95_ms p99_ms (json_floats utilization) fo.Sim.cancelled_work
        fo.Sim.catch_up_mb
        (List.length fo.Sim.recoveries)
        total_downtime fo.Sim.max_concurrent_down trace_dropped
        (Mon.violations monitor)
    else begin
      Fmt.pr "fault timeline (seed %d, mtbf %.0fs, mttr %.0fs):@." seed mtbf
        mttr;
      List.iter (fun t -> Fmt.pr "  %a@." Faults.Fault.pp_timed t) faults;
      Fmt.pr
        "offered %d, completed %d, availability %.4f (%d aborted, %d \
         timeouts)@."
        fo.Sim.offered fo.Sim.run.Sim.completed fo.Sim.availability
        fo.Sim.aborted fo.Sim.timeouts;
      Fmt.pr
        "retried %d requests (%d attempts), avg %.2f ms, p50 %.2f, p95 \
         %.2f, p99 %.2f ms@."
        fo.Sim.retried_requests fo.Sim.retries
        (1000. *. fo.Sim.run.Sim.avg_response)
        p50_ms p95_ms p99_ms;
      Fmt.pr "utilization per backend: %a@."
        Fmt.(array ~sep:sp (fmt "%.3f"))
        utilization;
      Fmt.pr
        "cancelled %.2fs of in-flight work, replayed %.2f MB at %d rejoins, \
         %.1fs total downtime, max %d down at once@."
        fo.Sim.cancelled_work fo.Sim.catch_up_mb
        (List.length fo.Sim.recoveries)
        total_downtime fo.Sim.max_concurrent_down;
      Fmt.pr
        "%d partitions, %d zone outages; monitor: %d events, %d \
         violation%s; trace dropped %d@."
        partitions zone_outages (Mon.events_seen monitor)
        (Mon.violations monitor)
        (if Mon.violations monitor = 1 then "" else "s")
        trace_dropped
    end;
    if fo.Sim.availability < min_avail then begin
      Fmt.epr "chaos: availability %.4f below threshold %.4f@."
        fo.Sim.availability min_avail;
      exit 1
    end;
    if monitor_gate && not (Mon.clean monitor) then begin
      Fmt.epr "%a" Diag.pp_report (Mon.report monitor);
      Fmt.epr "chaos: protocol monitor found %d violation%s@."
        (Mon.violations monitor)
        (if Mon.violations monitor = 1 then "" else "s");
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a seeded chaos experiment: crash/recover/slowdown faults — \
          plus correlated network partitions and zone outages — against a \
          (fault-domain-aware) k-safe allocation, with retries, fencing, \
          catch-up and degradation metrics")
    Term.(
      const run $ backends_arg $ seed_arg $ mtbf_arg $ mttr_arg
      $ duration_arg $ rate_arg $ k_arg $ max_down_arg $ min_avail_arg
      $ zones_arg $ correlated_mtbf_arg $ partition_prob_arg
      $ monitor_gate_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* overload                                                            *)
(* ------------------------------------------------------------------ *)

let overload_cmd =
  let module Fo = Cdbs_experiments.Fig_overload in
  let seed_arg =
    Arg.(
      value & opt int 11
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Random seed for the workload and jitter (deterministic).")
  in
  let rate_arg =
    Arg.(
      value & opt float 240.
      & info [ "rate" ] ~docv:"REQ/S" ~doc:"Offered request rate.")
  in
  let duration_arg =
    Arg.(
      value & opt float 120.
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Run length.")
  in
  let slow_factor_arg =
    Arg.(
      value & opt float 3.
      & info [ "slow-factor" ] ~docv:"FACTOR"
          ~doc:
            "Service-time multiplier of the gray-failing backend (slowed \
             for the middle half of the run).")
  in
  let slow_backend_arg =
    Arg.(
      value & opt (some int) None
      & info [ "slow-backend" ] ~docv:"B"
          ~doc:
            "Backend to slow down (default: the busiest backend of a clean \
             probe run).")
  in
  let deadline_arg =
    Arg.(
      value & opt float 1.
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"End-to-end deadline budget clients abandon requests at.")
  in
  let max_p99_arg =
    Arg.(
      value & opt (some float) None
      & info [ "max-p99-ms" ] ~docv:"MS"
          ~doc:
            "Exit non-zero when the defended run's p99 exceeds this — the \
             CI smoke-test hook.")
  in
  let max_shed_arg =
    Arg.(
      value & opt (some float) None
      & info [ "max-shed-rate" ] ~docv:"FRACTION"
          ~doc:
            "Exit non-zero when the defended run sheds more than this \
             fraction of offered requests.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the outcome as machine-readable JSON.")
  in
  let run n seed rate duration slow_factor slow_backend deadline json
      max_p99 max_shed =
    let module Mon = Cdbs_analysis.Monitor in
    let module Tel = Cdbs_telemetry in
    let sink = Tel.Sink.create () in
    let monitor = Mon.create () in
    let victim, c =
      Fo.compare_at ~nodes:n ~seed ~duration ~slow_factor
        ~deadline_s:deadline ?slow_backend ~telemetry:sink ~monitor
        ~rate_per_s:rate ()
    in
    let trace_dropped = Tel.Trace.dropped sink.Tel.Sink.trace in
    let d = c.Fo.defended and u = c.Fo.undefended in
    let shed_rate = float_of_int d.Fo.shed /. float_of_int (max 1 d.Fo.offered) in
    let ok, violations = Fo.acceptance c in
    let json_floats a =
      String.concat ","
        (Array.to_list (Array.map (Printf.sprintf "%.4f") a))
    in
    if json then
      Printf.printf
        "{\"seed\":%d,\"backends\":%d,\"rate\":%g,\"duration\":%g,\
         \"slow_backend\":%d,\"slow_factor\":%g,\"deadline_s\":%g,\
         \"undefended\":{\"availability\":%.6f,\"p50_ms\":%.3f,\
         \"p95_ms\":%.3f,\"p99_ms\":%.3f,\"shed\":%d,\"timeouts\":%d,\
         \"wasted_s\":%.3f},\
         \"defended\":{\"availability\":%.6f,\"p50_ms\":%.3f,\
         \"p95_ms\":%.3f,\"p99_ms\":%.3f,\"shed\":%d,\"shed_updates\":%d,\
         \"timeouts\":%d,\"hedged\":%d,\"hedge_wins\":%d,\
         \"breaker_trips\":%d,\"wasted_s\":%.3f,\"shed_rate\":%.6f,\
         \"utilization\":[%s]},\
         \"trace_dropped\":%d,\"monitor_violations\":%d,\
         \"acceptance\":%b}\n"
        seed n rate duration victim slow_factor deadline u.Fo.availability
        u.Fo.p50_ms u.Fo.p95_ms u.Fo.p99_ms u.Fo.shed u.Fo.timeouts
        u.Fo.wasted_s d.Fo.availability d.Fo.p50_ms d.Fo.p95_ms d.Fo.p99_ms
        d.Fo.shed d.Fo.shed_updates d.Fo.timeouts d.Fo.hedged d.Fo.hedge_wins
        d.Fo.breaker_trips d.Fo.wasted_s shed_rate
        (json_floats d.Fo.utilization)
        trace_dropped (Mon.violations monitor) ok
    else begin
      Fmt.pr
        "overload: %d backends, %.0f req/s for %.0fs, backend %d at x%.1f \
         for the middle half, deadline %.2fs@."
        n rate duration victim slow_factor deadline;
      Fmt.pr "  %a@." Fo.pp_stats ("undefended", u);
      Fmt.pr "  %a@." Fo.pp_stats ("defended", d);
      Fmt.pr "  defended utilization: %a  (shed rate %.4f)@."
        Fmt.(array ~sep:sp (fmt "%.3f"))
        d.Fo.utilization shed_rate;
      Fmt.pr "  monitor: %d violation%s; trace dropped %d@."
        (Mon.violations monitor)
        (if Mon.violations monitor = 1 then "" else "s")
        trace_dropped;
      if ok then Fmt.pr "  acceptance: ok@."
      else begin
        Fmt.pr "  acceptance FAILED:@.";
        List.iter (fun v -> Fmt.pr "    - %s@." v) violations
      end
    end;
    let gate_violations =
      violations
      @ (match max_p99 with
        | Some t when d.Fo.p99_ms > t ->
            [
              Printf.sprintf "defended p99 %.1f ms above threshold %.1f ms"
                d.Fo.p99_ms t;
            ]
        | _ -> [])
      @
      match max_shed with
      | Some t when shed_rate > t ->
          [
            Printf.sprintf "defended shed rate %.4f above threshold %.4f"
              shed_rate t;
          ]
      | _ -> []
    in
    if gate_violations <> [] then begin
      List.iter (fun v -> Fmt.epr "overload: %s@." v) gate_violations;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "overload"
       ~doc:
         "Run the overload / gray-failure experiment at one offered rate: \
          undefended vs defended (admission control, circuit breakers, \
          hedged reads, deadline budgets), with acceptance and CI threshold \
          gates")
    Term.(
      const run $ backends_arg $ seed_arg $ rate_arg $ duration_arg
      $ slow_factor_arg $ slow_backend_arg $ deadline_arg $ json_arg
      $ max_p99_arg $ max_shed_arg)

(* ------------------------------------------------------------------ *)
(* day                                                                 *)
(* ------------------------------------------------------------------ *)

let day_cmd =
  let module Fd = Cdbs_experiments.Fig_day in
  let module Slo = Cdbs_telemetry.Slo_report in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Run the scaled-down CI preset (same scenario shape, ~3% of the \
             events) instead of the full macro-benchmark.")
  in
  let seed_arg =
    Arg.(
      value & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Random seed (deterministic; default from the preset).")
  in
  let scale_arg =
    Arg.(
      value & opt (some float) None
      & info [ "scale" ] ~docv:"X"
          ~doc:"Multiplier on the diurnal trace's request rate.")
  in
  let window_arg =
    Arg.(
      value & opt (some float) None
      & info [ "window-minutes" ] ~docv:"MIN"
          ~doc:"Scheduling/autoscaling window length in minutes.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Also write the BENCH_day.json payload to $(docv).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the BENCH_day.json payload on stdout instead of text.")
  in
  let min_avail_arg =
    Arg.(
      value & opt (some float) None
      & info [ "min-availability" ] ~docv:"FRAC"
          ~doc:"Exit non-zero if availability falls below $(docv).")
  in
  let max_p99_arg =
    Arg.(
      value & opt (some float) None
      & info [ "max-p99-ms" ] ~docv:"MS"
          ~doc:"Exit non-zero if the day's p99 latency exceeds $(docv).")
  in
  let max_shed_arg =
    Arg.(
      value & opt (some float) None
      & info [ "max-shed-rate" ] ~docv:"FRAC"
          ~doc:"Exit non-zero if the shed rate exceeds $(docv).")
  in
  let monitor_arg =
    Arg.(
      value & flag
      & info [ "monitor" ]
          ~doc:
            "Attach the protocol monitor to the day's event stream and exit \
             non-zero on any temporal-invariant violation.")
  in
  let autotune_arg =
    Arg.(
      value & flag
      & info [ "autotune" ]
          ~doc:
            "Compose the self-healing control loop into the day: measured \
             drift triggers guarded live reallocations with canary + \
             rollback alongside the autoscaler.  Implies $(b,--monitor) — \
             the run is gated on a clean protocol monitor (TRC016-018 \
             verify the control protocol).")
  in
  let trace_capacity_arg =
    Arg.(
      value & opt (some int) None
      & info [ "trace-capacity" ] ~docv:"N"
          ~doc:
            "Telemetry trace ring capacity in events (default from the \
             preset). The ring evicts oldest-first, so a capacity below the \
             run's event volume drops early events from the retained trace; \
             raise it to keep the full day for $(b,--monitor) or offline \
             analysis.")
  in
  let run smoke seed scale window_minutes out json min_avail max_p99 max_shed
      with_monitor autotune trace_capacity =
    let base = if smoke then Fd.smoke else Fd.default in
    (match trace_capacity with
    | Some n when n <= 0 ->
        Fmt.epr "day: --trace-capacity must be positive@.";
        exit 2
    | _ -> ());
    let params =
      {
        base with
        Fd.seed = Option.value seed ~default:base.Fd.seed;
        scale = Option.value scale ~default:base.Fd.scale;
        window_minutes =
          Option.value window_minutes ~default:base.Fd.window_minutes;
        trace_capacity =
          Option.value trace_capacity ~default:base.Fd.trace_capacity;
        autotune;
      }
    in
    (* --autotune is gated on a clean monitor: the control protocol is
       only trustworthy if TRC016-018 watched it. *)
    let monitor =
      if with_monitor || autotune then Some (Cdbs_analysis.Monitor.create ())
      else None
    in
    let r = Fd.run ~params ?monitor () in
    let mv = Option.map Cdbs_analysis.Monitor.violations monitor in
    if json then print_endline (Fd.to_json ?monitor_violations:mv r)
    else begin
      Fmt.pr
        "day: seed %d, scale %g, %g-minute windows, %d-%d nodes%s@."
        params.Fd.seed params.Fd.scale params.Fd.window_minutes
        params.Fd.nodes_min params.Fd.nodes_max
        (if autotune then ", autotune on" else "");
      Fmt.pr "%a@." Slo.pp r.Fd.report;
      Fmt.pr "%d events in %.1f s (%.0f events/s)@." r.Fd.events r.Fd.wall_s
        r.Fd.events_per_s
    end;
    (match out with
    | Some path ->
        Fd.write_json ?monitor_violations:mv ~path r;
        if not json then Fmt.pr "wrote %s@." path
    | None -> ());
    let gate =
      Slo.gate ?min_availability:min_avail
        ?max_p99_s:(Option.map (fun ms -> ms /. 1000.) max_p99)
        ?max_shed_rate:max_shed ()
    in
    let violations = Slo.check gate r.Fd.report in
    if violations <> [] then begin
      List.iter (fun v -> Fmt.epr "day: %s@." v) violations;
      exit 1
    end;
    match monitor with
    | None -> ()
    | Some m ->
        let module Mon = Cdbs_analysis.Monitor in
        if not json then
          Fmt.pr "monitor: %d events observed, %d violation%s@."
            (Mon.events_seen m) (Mon.violations m)
            (if Mon.violations m = 1 then "" else "s");
        if not (Mon.clean m) then begin
          Fmt.epr "%a" Diag.pp_report (Mon.report m);
          Fmt.epr "day: protocol monitor found %d violation%s@."
            (Mon.violations m)
            (if Mon.violations m = 1 then "" else "s");
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "day"
       ~doc:
         "Run the day-in-production SLO macro-benchmark: 24h diurnal load x \
          autoscaling x live migration x chaos faults x overload defenses, \
          with an SLO report and CI threshold gates")
    Term.(
      const run $ smoke_arg $ seed_arg $ scale_arg $ window_arg $ out_arg
      $ json_arg $ min_avail_arg $ max_p99_arg $ max_shed_arg $ monitor_arg
      $ autotune_arg $ trace_capacity_arg)

(* ------------------------------------------------------------------ *)
(* alloc — massive-instance allocator benchmark                        *)
(* ------------------------------------------------------------------ *)

let alloc_cmd =
  let module Fa = Cdbs_experiments.Fig_alloc in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Run the CI preset (100k fragments x 50 backends) instead of \
             the full 10^6-fragment benchmark.")
  in
  let fragments_arg =
    Arg.(
      value & opt (some int) None
      & info [ "fragments" ] ~docv:"N" ~doc:"Fragment count.")
  in
  let reads_arg =
    Arg.(
      value & opt (some int) None
      & info [ "reads" ] ~docv:"N" ~doc:"Read query-class count.")
  in
  let updates_arg =
    Arg.(
      value & opt (some int) None
      & info [ "updates" ] ~docv:"N" ~doc:"Update query-class count.")
  in
  let backends_arg =
    Arg.(
      value & opt (some int) None
      & info [ "n"; "backends" ] ~docv:"N" ~doc:"Backend count.")
  in
  let seed_arg =
    Arg.(
      value & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Random seed for the instance, the deltas and the memetic.")
  in
  let strategy_conv = Arg.enum [ ("greedy", Fa.Greedy); ("memetic", Fa.Memetic) ] in
  let strategy_arg =
    Arg.(
      value & opt strategy_conv Fa.Greedy
      & info [ "s"; "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "$(b,greedy) runs the dense greedy only; $(b,memetic) follows \
             it with the Domain-parallel island optimizer.")
  in
  let islands_arg =
    Arg.(
      value & opt (some int) None
      & info [ "islands" ] ~docv:"N" ~doc:"Memetic island count.")
  in
  let generations_arg =
    Arg.(
      value & opt (some int) None
      & info [ "generations" ] ~docv:"N"
          ~doc:"Memetic generations per island.")
  in
  let population_arg =
    Arg.(
      value & opt (some int) None
      & info [ "population" ] ~docv:"N" ~doc:"Individuals per island.")
  in
  let domains_arg =
    Arg.(
      value & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Domains running the islands (default: all available).  The \
             result is bit-identical for a fixed seed and island count \
             whatever this is set to.")
  in
  let no_repair_arg =
    Arg.(
      value & flag
      & info [ "no-repair" ]
          ~doc:"Skip the incremental-repair vs. re-solve comparison.")
  in
  let delta_frac_arg =
    Arg.(
      value & opt (some float) None
      & info [ "delta-frac" ] ~docv:"FRAC"
          ~doc:
            "Fraction of query classes the random workload delta touches \
             (default 0.01).")
  in
  let budget_arg =
    Arg.(
      value & opt (some int) None
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Cap on optional rebalance fragment copies during repair \
             (correctness moves are never dropped).")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Exit non-zero if the dense checker finds any error in the \
             produced or repaired allocation.")
  in
  let max_seconds_arg =
    Arg.(
      value & opt (some float) None
      & info [ "max-seconds" ] ~docv:"S"
          ~doc:"Exit non-zero if the greedy pass takes longer than $(docv).")
  in
  let max_moved_arg =
    Arg.(
      value & opt (some float) None
      & info [ "max-moved-frac" ] ~docv:"FRAC"
          ~doc:
            "Exit non-zero if repair moves more than $(docv) of the \
             fragment count — the O(delta) gate.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the BENCH_alloc.json payload on stdout instead of text.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Also write the BENCH_alloc.json payload to $(docv).")
  in
  let run smoke fragments reads updates backends seed strategy islands
      generations population domains no_repair delta_frac budget check
      max_seconds max_moved json out =
    let base = if smoke then Fa.smoke else Fa.default in
    let params =
      {
        base with
        Fa.fragments = Option.value fragments ~default:base.Fa.fragments;
        reads = Option.value reads ~default:base.Fa.reads;
        updates = Option.value updates ~default:base.Fa.updates;
        backends = Option.value backends ~default:base.Fa.backends;
        seed = Option.value seed ~default:base.Fa.seed;
        strategy;
        islands = Option.value islands ~default:base.Fa.islands;
        generations = Option.value generations ~default:base.Fa.generations;
        population = Option.value population ~default:base.Fa.population;
        domains = (match domains with Some _ -> domains | None -> base.Fa.domains);
        repair = base.Fa.repair && not no_repair;
        delta_frac = Option.value delta_frac ~default:base.Fa.delta_frac;
        budget = (match budget with Some _ -> budget | None -> base.Fa.budget);
      }
    in
    if params.Fa.fragments <= 0 || params.Fa.backends <= 0 then begin
      Fmt.epr "alloc: --fragments and --backends must be positive@.";
      exit 2
    end;
    let r = Fa.run ~params () in
    if json then print_endline (Fa.to_json r)
    else Fmt.pr "%a" Fa.pp_result r;
    (match out with
    | Some path ->
        Fa.write_json ~path r;
        if not json then Fmt.pr "wrote %s@." path
    | None -> ());
    let fail = ref false in
    let errors =
      r.Fa.check_errors
      + match r.Fa.repair with Some rp -> rp.Fa.repair_errors | None -> 0
    in
    if check && errors > 0 then begin
      Fmt.epr "alloc: dense checker found %d error%s@." errors
        (if errors = 1 then "" else "s");
      fail := true
    end;
    (match max_seconds with
    | Some s when r.Fa.greedy_s > s ->
        Fmt.epr "alloc: greedy took %.2f s > %.2f s@." r.Fa.greedy_s s;
        fail := true
    | _ -> ());
    (match (max_moved, r.Fa.repair) with
    | Some frac, Some rp when rp.Fa.moved_frac > frac ->
        Fmt.epr "alloc: repair moved %.4f > %.4f of fragments@."
          rp.Fa.moved_frac frac;
        fail := true
    | _ -> ());
    if !fail then exit 1
  in
  Cmd.v
    (Cmd.info "alloc"
       ~doc:
         "Run the massive-instance allocator benchmark: dense greedy at \
          10^5-10^6 fragments, optional Domain-parallel memetic islands, \
          and O(delta) incremental repair timed against a from-scratch \
          re-solve, with checker and wall-clock gates for CI")
    Term.(
      const run $ smoke_arg $ fragments_arg $ reads_arg $ updates_arg
      $ backends_arg $ seed_arg $ strategy_arg $ islands_arg
      $ generations_arg $ population_arg $ domains_arg $ no_repair_arg
      $ delta_frac_arg $ budget_arg $ check_arg $ max_seconds_arg
      $ max_moved_arg $ json_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* autotune — self-tuning vs static under workload drift               *)
(* ------------------------------------------------------------------ *)

let autotune_cmd =
  let module Fdr = Cdbs_experiments.Fig_drift in
  let module Slo = Cdbs_telemetry.Slo_report in
  let module Mon = Cdbs_analysis.Monitor in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Run the scaled-down CI preset (shorter windows, lower rate) \
             instead of the full drift experiment.")
  in
  let seed_arg =
    Arg.(
      value & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Random seed (deterministic; default from the preset).")
  in
  let chaos_arg =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Add crash/recover renewals and a seeded workload-shift stream \
             (shared verbatim by both arms): drift and crashes together.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Also write the BENCH_drift.json payload to $(docv).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the BENCH_drift.json payload on stdout instead of text.")
  in
  let monitor_arg =
    Arg.(
      value & flag
      & info [ "monitor" ]
          ~doc:
            "Attach the protocol monitor to both arms' event streams \
             (serving protocol plus the control protocol, TRC016-018) and \
             exit non-zero on any violation.")
  in
  let require_win_arg =
    Arg.(
      value & flag
      & info [ "require-win" ]
          ~doc:
            "Exit non-zero unless the self-tuning arm beats the static arm \
             on both p99 and availability — the CI headline gate.")
  in
  let min_avail_arg =
    Arg.(
      value & opt (some float) None
      & info [ "min-availability" ] ~docv:"FRAC"
          ~doc:
            "Exit non-zero if the self-tuning arm's availability falls \
             below $(docv).")
  in
  let max_p99_arg =
    Arg.(
      value & opt (some float) None
      & info [ "max-p99-ms" ] ~docv:"MS"
          ~doc:
            "Exit non-zero if the self-tuning arm's p99 latency exceeds \
             $(docv).")
  in
  let run smoke seed chaos json out with_monitor require_win min_avail max_p99
      =
    let base = if smoke then Fdr.smoke else Fdr.default in
    let params =
      {
        base with
        Fdr.seed = Option.value seed ~default:base.Fdr.seed;
        chaos = chaos || base.Fdr.chaos;
      }
    in
    let monitor = if with_monitor then Some (Mon.create ()) else None in
    let r = Fdr.run ~params ?monitor () in
    let mv = Option.map Mon.violations monitor in
    if json then print_endline (Fdr.to_json ?monitor_violations:mv r)
    else begin
      Fmt.pr
        "autotune: seed %d, %d windows x %g min, %d nodes, step at window \
         %d%s@."
        params.Fdr.seed params.Fdr.windows params.Fdr.window_minutes
        params.Fdr.nodes params.Fdr.step_window
        (if params.Fdr.chaos then ", chaos on" else "");
      Fmt.pr "@.static allocation:@.%a@." Slo.pp r.Fdr.static_.Fdr.report;
      Fmt.pr "@.self-tuning:@.%a@." Slo.pp r.Fdr.tuned.Fdr.report;
      Fmt.pr
        "@.reallocations %d (%d rolled back, %d committed), peak drift \
         %.2f@."
        r.Fdr.reallocations r.Fdr.rollbacks r.Fdr.commits r.Fdr.peak_drift;
      Fmt.pr
        "verdict: self-tuning %s (p99 %.0f ms vs %.0f ms, availability \
         %.4f vs %.4f)@."
        (if Fdr.verdict r then "wins" else "does NOT win")
        (1000. *. r.Fdr.tuned.Fdr.report.Slo.p99_s)
        (1000. *. r.Fdr.static_.Fdr.report.Slo.p99_s)
        r.Fdr.tuned.Fdr.report.Slo.availability
        r.Fdr.static_.Fdr.report.Slo.availability;
      Fmt.pr "%d events in %.1f s (%.0f events/s)@." r.Fdr.events r.Fdr.wall_s
        r.Fdr.events_per_s
    end;
    (match out with
    | Some path ->
        Fdr.write_json ?monitor_violations:mv ~path r;
        if not json then Fmt.pr "wrote %s@." path
    | None -> ());
    let gate =
      Slo.gate ?min_availability:min_avail
        ?max_p99_s:(Option.map (fun ms -> ms /. 1000.) max_p99)
        ()
    in
    let violations = Slo.check gate r.Fdr.tuned.Fdr.report in
    if violations <> [] then begin
      List.iter (fun v -> Fmt.epr "autotune: %s@." v) violations;
      exit 1
    end;
    if require_win && not (Fdr.verdict r) then begin
      Fmt.epr
        "autotune: self-tuning did not beat the static allocation (p99 \
         %.1f ms vs %.1f ms, availability %.6f vs %.6f)@."
        (1000. *. r.Fdr.tuned.Fdr.report.Slo.p99_s)
        (1000. *. r.Fdr.static_.Fdr.report.Slo.p99_s)
        r.Fdr.tuned.Fdr.report.Slo.availability
        r.Fdr.static_.Fdr.report.Slo.availability;
      exit 1
    end;
    match monitor with
    | None -> ()
    | Some m ->
        if not json then
          Fmt.pr "monitor: %d events observed, %d violation%s@."
            (Mon.events_seen m) (Mon.violations m)
            (if Mon.violations m = 1 then "" else "s");
        if not (Mon.clean m) then begin
          Fmt.epr "%a" Diag.pp_report (Mon.report m);
          Fmt.epr "autotune: protocol monitor found %d violation%s@."
            (Mon.violations m)
            (if Mon.violations m = 1 then "" else "s");
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "autotune"
       ~doc:
         "Run the workload-drift experiment: the self-healing control loop \
          (measured cost model, drift detection, guarded live reallocation \
          with canary + automatic rollback) against a static allocation \
          under an adversarial step-change, with SLO gates for CI")
    Term.(
      const run $ smoke_arg $ seed_arg $ chaos_arg $ json_arg $ out_arg
      $ monitor_arg $ require_win_arg $ min_avail_arg $ max_p99_arg)

(* ------------------------------------------------------------------ *)
(* verify-trace — the protocol sanitizer                                *)
(* ------------------------------------------------------------------ *)

let verify_trace_cmd =
  let module Faults = Cdbs_faults in
  let module Sim = Cdbs_cluster.Simulator in
  let module Mon = Cdbs_analysis.Monitor in
  let module Tel = Cdbs_telemetry in
  let mtbf_arg =
    Arg.(
      value & opt float 120.
      & info [ "mtbf" ] ~docv:"SECONDS"
          ~doc:"Mean time between failures per backend.")
  in
  let mttr_arg =
    Arg.(
      value & opt float 25.
      & info [ "mttr" ] ~docv:"SECONDS" ~doc:"Mean time to recovery.")
  in
  let duration_arg =
    Arg.(
      value & opt float 600.
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Run length (also the fault-injection horizon).")
  in
  let rate_arg =
    Arg.(
      value & opt float 20.
      & info [ "rate" ] ~docv:"REQ/S" ~doc:"Offered request rate.")
  in
  let k_arg =
    Arg.(
      value & opt int 1
      & info [ "k" ] ~docv:"K"
          ~doc:"k-safety degree of the allocation under test.")
  in
  let deadline_arg =
    Arg.(
      value & opt float 1.
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"End-to-end deadline budget of the defense stack.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the diagnostics as machine-readable JSON.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit non-zero on warnings too, not just errors.")
  in
  let inject_conv =
    Arg.enum
      [
        ("none", `None); ("breaker-hop", `Breaker_hop); ("rejoin", `Rejoin);
        ("deadline", `Deadline); ("down-serve", `Down_serve);
        ("split-brain", `Split_brain);
        ("overlap-realloc", `Overlap_realloc);
        ("cooldown-trigger", `Cooldown_trigger);
        ("rogue-rollback", `Rogue_rollback);
      ]
  in
  let inject_arg =
    Arg.(
      value & opt inject_conv `None
      & info [ "inject" ] ~docv:"FAULT"
          ~doc:
            "Replay a short synthetic event sequence that breaks one \
             temporal invariant after the real run — proves the monitor \
             rejects it.  $(b,breaker-hop) takes an illegal breaker \
             transition (TRC004), $(b,rejoin) serves a read before \
             catch-up finished (TRC005), $(b,deadline) grows the deadline \
             budget across retries (TRC007), $(b,down-serve) books work on \
             a crashed backend (TRC003), $(b,split-brain) walks the whole \
             partition pathology: a serve while isolated (TRC013), a read \
             on a fenced backend after the heal (TRC015) and a non-monotonic \
             fencing epoch (TRC014).  The control-loop protocol: \
             $(b,overlap-realloc) starts a reallocation while another is in \
             flight (TRC016), $(b,cooldown-trigger) fires a drift trigger \
             inside the post-action cooldown (TRC017), $(b,rogue-rollback) \
             rolls back with no guardrail breach (TRC018).")
  in
  let run n seed k mtbf mttr duration rate deadline json strict inject =
    (* The sanitizer reports; like check, it must not trip the in-engine
       assertions before it can do so. *)
    Core.Invariants.disable ();
    let policy = Cdbs_experiments.Fig_overload.defenses ~deadline_s:deadline in
    let chaos_params =
      {
        Faults.Chaos.default with
        Faults.Chaos.mtbf;
        mttr;
        horizon = duration;
        max_concurrent_down = Some k;
      }
    in
    let rng = Cdbs_util.Rng.create seed in
    let faults = Faults.Chaos.generate ~rng ~num_backends:n chaos_params in
    (* Static lints first: the defense bundle and the fault timeline. *)
    let static_diags =
      Cdbs_analysis.Check_policy.check policy
      @ Cdbs_analysis.Check_faults.check_params ~k chaos_params
      @ Cdbs_analysis.Check_faults.check_schedule ~k ~num_backends:n faults
    in
    let workload = Cdbs_workloads.Trace.workload_at ~hour:14. in
    let alloc =
      Core.Ksafety.allocate ~k workload (Core.Backend.homogeneous n)
    in
    let reqs =
      List.map
        (fun (r : Cdbs_cluster.Request.t) ->
          { r with Cdbs_cluster.Request.arrival = Cdbs_util.Rng.float rng duration })
        (Cdbs_workloads.Spec.requests ~rng
           ~n:(int_of_float (rate *. duration))
           (Cdbs_workloads.Trace.specs_at ~hour:14.))
    in
    (* The monitor subscribes to the full stream, so the ring capacity
       only decides whether a TRC012 overflow warning appears; size it to
       stay warning-clean at the default load. *)
    let sink =
      Tel.Sink.create
        ~capacity:(max 4096 (8 * int_of_float (rate *. duration)))
        ()
    in
    let monitor = Mon.create () in
    ignore (Mon.attach monitor sink);
    let config = Sim.homogeneous_config n in
    let fo =
      Sim.run_open_with_faults
        ~rng:(Cdbs_util.Rng.create (seed + 1))
        ~resilience:policy ~telemetry:sink config alloc reqs ~faults
    in
    (* Deliberate corruption: a synthetic mini-run of protocol events the
       monitor must reject (its own run.start isolates it from the real
       run's state). *)
    let tr = sink.Tel.Sink.trace in
    let ev at name attrs = Tel.Trace.emit tr ~at name attrs in
    let injected =
      match inject with
      | `None -> None
      | ( `Breaker_hop | `Rejoin | `Deadline | `Down_serve | `Split_brain
        | `Overlap_realloc | `Cooldown_trigger | `Rogue_rollback ) as f ->
          ev 0. "run.start"
            [ ("backends", Tel.Trace.Int n); ("offered", Tel.Trace.Int 0) ];
          Some
            (match f with
            | `Breaker_hop ->
                ev 1. "breaker.transition"
                  [
                    ("backend", Tel.Trace.Int 0);
                    ("state", Tel.Trace.Str "half_open");
                  ];
                "closed -> half_open breaker hop"
            | `Rejoin ->
                ev 1. "backend.crash" [ ("backend", Tel.Trace.Int 0) ];
                ev 2. "backend.recover"
                  [
                    ("backend", Tel.Trace.Int 0);
                    ("replay_mb", Tel.Trace.Float 4.);
                  ];
                ev 3. "backend.serve"
                  [
                    ("backend", Tel.Trace.Int 0);
                    ("kind", Tel.Trace.Str "read");
                    ("start", Tel.Trace.Float 3.);
                    ("finish", Tel.Trace.Float 3.1);
                  ];
                "read served before catch-up finished"
            | `Deadline ->
                ev 1. "request.retry"
                  [
                    ("uid", Tel.Trace.Int 7); ("attempt", Tel.Trace.Int 1);
                    ("retry_at", Tel.Trace.Float 1.5);
                    ("remaining_s", Tel.Trace.Float 0.8);
                  ];
                ev 2. "request.retry"
                  [
                    ("uid", Tel.Trace.Int 7); ("attempt", Tel.Trace.Int 2);
                    ("retry_at", Tel.Trace.Float 2.5);
                    ("remaining_s", Tel.Trace.Float 1.6);
                  ];
                "deadline budget grew across retries"
            | `Down_serve ->
                ev 1. "backend.crash" [ ("backend", Tel.Trace.Int 0) ];
                ev 2. "backend.serve"
                  [
                    ("backend", Tel.Trace.Int 0);
                    ("kind", Tel.Trace.Str "read");
                    ("start", Tel.Trace.Float 2.);
                    ("finish", Tel.Trace.Float 2.2);
                  ];
                "work booked on a crashed backend"
            | `Split_brain ->
                (* The full partition pathology: the isolated minority keeps
                   serving, the heal fence is ignored, and a replayed heal
                   reuses an old epoch. *)
                ev 1. "backend.partition" [ ("backend", Tel.Trace.Int 0) ];
                ev 2. "backend.serve"
                  [
                    ("backend", Tel.Trace.Int 0);
                    ("kind", Tel.Trace.Str "read");
                    ("start", Tel.Trace.Float 2.);
                    ("finish", Tel.Trace.Float 2.1);
                  ];
                ev 3. "backend.heal"
                  [
                    ("backend", Tel.Trace.Int 0);
                    ("epoch", Tel.Trace.Int 1);
                    ("replay_mb", Tel.Trace.Float 4.);
                  ];
                ev 4. "backend.serve"
                  [
                    ("backend", Tel.Trace.Int 0);
                    ("kind", Tel.Trace.Str "read");
                    ("start", Tel.Trace.Float 4.);
                    ("finish", Tel.Trace.Float 4.1);
                  ];
                ev 5. "backend.fence_lift"
                  [ ("backend", Tel.Trace.Int 0); ("epoch", Tel.Trace.Int 1) ];
                ev 6. "backend.partition" [ ("backend", Tel.Trace.Int 0) ];
                ev 7. "backend.heal"
                  [
                    ("backend", Tel.Trace.Int 0);
                    ("epoch", Tel.Trace.Int 1);
                    ("replay_mb", Tel.Trace.Float 0.);
                  ];
                "served while partitioned, read through the heal fence, \
                 stale fencing epoch"
            | `Overlap_realloc ->
                ev 1. "control.session" [];
                ev 2. "control.reallocate.start"
                  [
                    ("id", Tel.Trace.Int 1);
                    ("moved_mb", Tel.Trace.Float 64.);
                  ];
                ev 3. "control.reallocate.start"
                  [
                    ("id", Tel.Trace.Int 2);
                    ("moved_mb", Tel.Trace.Float 32.);
                  ];
                "second reallocation started while the first is still in \
                 flight"
            | `Cooldown_trigger ->
                ev 1. "control.session" [];
                ev 2. "control.reallocate.start" [ ("id", Tel.Trace.Int 1) ];
                ev 3. "control.commit" [ ("id", Tel.Trace.Int 1) ];
                ev 4. "control.trigger"
                  [
                    ("score", Tel.Trace.Float 2.);
                    ("threshold", Tel.Trace.Float 1.);
                    ("cooldown_s", Tel.Trace.Float 600.);
                  ];
                "drift trigger inside the post-action cooldown"
            | `Rogue_rollback ->
                ev 1. "control.session" [];
                ev 2. "control.reallocate.start" [ ("id", Tel.Trace.Int 1) ];
                ev 3. "control.rollback" [ ("id", Tel.Trace.Int 1) ];
                "rollback with no guardrail breach since the cutover")
    in
    let diags = Diag.sort (static_diags @ Mon.report monitor) in
    let errors = List.length (Diag.errors diags) in
    let warnings = List.length (Diag.warnings diags) in
    if json then
      Printf.printf
        "{\"seed\":%d,\"backends\":%d,\"k\":%d,\"mtbf\":%g,\"mttr\":%g,\
         \"duration\":%g,\"rate\":%g,\"deadline_s\":%g,\
         \"offered\":%d,\"completed\":%d,\"availability\":%.6f,\
         \"events_seen\":%d,\"trace_dropped\":%d,\
         \"monitor_violations\":%d,\"injected\":%s,\
         \"errors\":%d,\"warnings\":%d,\"diagnostics\":%s}\n"
        seed n k mtbf mttr duration rate deadline fo.Sim.offered
        fo.Sim.run.Sim.completed fo.Sim.availability
        (Mon.events_seen monitor)
        (Tel.Trace.dropped tr) (Mon.violations monitor)
        (match injected with
        | Some what -> json_string what
        | None -> "null")
        errors warnings (Diag.list_to_json diags)
    else begin
      Fmt.pr
        "verify-trace: %d backends, k=%d, seed %d, mtbf %.0fs, mttr %.0fs, \
         %.0fs at %.0f req/s, deadline %.2fs@."
        n k seed mtbf mttr duration rate deadline;
      Fmt.pr
        "run: offered %d, completed %d, availability %.4f; monitor observed \
         %d events@."
        fo.Sim.offered fo.Sim.run.Sim.completed fo.Sim.availability
        (Mon.events_seen monitor);
      (match injected with
      | Some what -> Fmt.pr "injected fault: %s@." what
      | None -> ());
      Fmt.pr "%a" Diag.pp_report diags;
      Fmt.pr "@.verified: %d error%s, %d warning%s@." errors
        (if errors = 1 then "" else "s")
        warnings
        (if warnings = 1 then "" else "s")
    end;
    if errors > 0 || (strict && warnings > 0) then exit 1
  in
  Cmd.v
    (Cmd.info "verify-trace"
       ~doc:
         "Run a seeded chaos scenario with the full defense stack and the \
          protocol monitor attached — temporal invariants over the \
          simulation trace plus resilience/fault configuration lints, with \
          non-zero exit on violations")
    Term.(
      const run $ backends_arg $ seed_arg $ k_arg $ mtbf_arg $ mttr_arg
      $ duration_arg $ rate_arg $ deadline_arg $ json_arg $ strict_arg
      $ inject_arg)

(* ------------------------------------------------------------------ *)
(* journalgen                                                          *)
(* ------------------------------------------------------------------ *)

let journalgen_cmd =
  let out_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Output journal file.")
  in
  let entries_arg =
    Arg.(
      value & opt int 2000
      & info [ "e"; "entries" ] ~docv:"N" ~doc:"Journal entries to generate.")
  in
  let run path entries seed =
    let journal =
      Cdbs_workloads.Tpch_queries.journal
        ~rng:(Cdbs_util.Rng.create seed)
        ~n:entries ~sf:1.
    in
    Core.Journal.save_file journal path;
    Fmt.pr "wrote %d TPC-H journal entries to %s@."
      (Core.Journal.length journal)
      path
  in
  Cmd.v
    (Cmd.info "journalgen"
       ~doc:"Generate a sample TPC-H SQL journal file (for classify)")
    Term.(const run $ out_arg $ entries_arg $ seed_arg)

let () =
  let doc = "query-centric partitioning and allocation for CDBSs" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "cdbs" ~version:"1.0.0" ~doc)
          [
            classify_cmd; allocate_cmd; simulate_cmd; experiment_cmd;
            migrate_cmd; check_cmd; chaos_cmd; overload_cmd; day_cmd;
            alloc_cmd; autotune_cmd; verify_trace_cmd; journalgen_cmd;
          ]))
