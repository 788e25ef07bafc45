(* cdbs — command-line front end to the query-centric allocation library.

   Subcommands:
     classify      classify a SQL journal file into query classes
     allocate      compute an allocation for a built-in workload
     simulate      simulate a workload on a cluster and report throughput
     experiment    run one of the paper-reproduction experiment sections
     migrate       rebalance a live cluster between two trace allocations
     check         statically verify allocations, migration plans, workloads
     chaos         run a seeded fault experiment against a k-safe allocation
     overload      run the gray-failure experiment, undefended vs defended
     day           run the day-in-production SLO macro-benchmark
     alloc         run the massive-instance allocator benchmark
     autotune      run the self-tuning control loop against workload drift
     verify-trace  run the protocol sanitizer over a seeded chaos run
     journalgen    generate a sample TPC-H SQL journal

   Exit codes: 0 pass, 1 a gate found a violation, 2 bad check input,
   124 a usage error. *)

open Cmdliner

module Core = Cdbs_core
module Diag = Cdbs_analysis.Diagnostic
module Mon = Cdbs_analysis.Monitor
module Slo = Cdbs_telemetry.Slo_report

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

(* Counts and sizes: a value at or below [zero] is a usage error. *)
let positive zero conv =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when v > zero -> Ok v
    | Ok _ -> Error (`Msg (s ^ " is not positive"))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let backends_arg =
  Arg.(
    value
    & opt (positive 0 int) 4
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

let k_arg ~default doc =
  Arg.(value & opt int default & info [ "k" ] ~docv:"K" ~doc)

let rate_arg default =
  Arg.(
    value & opt float default
    & info [ "rate" ] ~docv:"REQ/S" ~doc:"Offered request rate.")

let duration_arg default =
  Arg.(
    value
    & opt (positive 0. float) default
    & info [ "duration" ] ~docv:"SECONDS"
        ~doc:"Simulated run length (and the fault-injection horizon).")

let deadline_arg =
  Arg.(
    value & opt float 1.
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "End-to-end deadline budget: clients abandon a request when it \
           runs out, and the defense stack sheds and hedges against it.")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Exit non-zero on warnings too, not just errors — the CI lint \
           gate.")

let make_backends n loads =
  if loads = [] then Core.Backend.homogeneous n
  else Core.Backend.heterogeneous loads

(* Limits between flags, checked before a run starts: a k-safe placement
   needs k + 1 backends, and the zones and the slowed backend must exist.
   A violation is a usage error. *)
let within ~n ?(k = 0) ?(zones = 1) ?slow_backend run =
  let usage flag fmt =
    Printf.ksprintf (fun m -> `Error (false, "option '" ^ flag ^ "': " ^ m)) fmt
  in
  if k >= n then usage "-k" "%d needs at least %d backends, got %d" k (k + 1) n
  else if zones > n then usage "--zones" "%d zones exceed the %d backends" zones n
  else
    match slow_backend with
    | Some b when b < 0 || b >= n ->
        usage "--slow-backend" "%d is not one of backends 0-%d" b (n - 1)
    | _ -> `Ok (run ())

let plural n word = Printf.sprintf "%d %s%s" n word (if n = 1 then "" else "s")

let json_floats a =
  String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.4f") a))

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
(* Reports and gates                                                   *)
(* ------------------------------------------------------------------ *)

(* A run reports as text or, with --json, as one JSON line on stdout;
   runs with a BENCH_*.json payload can also write it to --out. *)
type output = { json : bool; out : string option }

let json_arg doc = Arg.(value & flag & info [ "json" ] ~doc)
let json_only doc = Term.(const (fun json -> { json; out = None }) $ json_arg doc)

let bench_output payload =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:(Printf.sprintf "Also write the %s payload to $(docv)." payload))
  in
  Term.(
    const (fun json out -> { json; out })
    $ json_arg
        (Printf.sprintf "Emit the %s payload on stdout instead of text."
           payload)
    $ out)

let emit o ~json text =
  if o.json then print_endline json else text ();
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc json;
          output_char oc '\n');
      if not o.json then Fmt.pr "wrote %s@." path)
    o.out

(* The SLO gate flags a run offers; [what] names the run they judge.  A
   flag a run does not offer gates nothing. *)
let slo_gate ?(availability = false) ?(p99 = false) ?(shed_rate = false) what
    =
  let offered present arg = if present then arg else Term.const None in
  let min_availability =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-availability" ] ~docv:"FRAC"
          ~doc:
            (Printf.sprintf
               "Exit non-zero if %s's availability (completed / offered) \
                falls below $(docv)."
               what))
  in
  let max_p99_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-p99-ms" ] ~docv:"MS"
          ~doc:
            (Printf.sprintf "Exit non-zero if %s's p99 latency exceeds $(docv)."
               what))
  in
  let max_shed_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-shed-rate" ] ~docv:"FRAC"
          ~doc:
            (Printf.sprintf
               "Exit non-zero if %s sheds more than $(docv) of the offered \
                requests."
               what))
  in
  Term.(
    const (fun min_availability max_p99_ms max_shed_rate ->
        Slo.gate ?min_availability
          ?max_p99_s:(Option.map (fun ms -> ms /. 1000.) max_p99_ms)
          ?max_shed_rate ())
    $ offered availability min_availability
    $ offered p99 max_p99_ms
    $ offered shed_rate max_shed_rate)

let slo_violations gate (r : Slo.t) =
  Slo.check gate ~availability:r.Slo.availability ~p99_s:r.Slo.p99_s
    ~shed_rate:r.Slo.shed_rate

(* A gate's violations: one "cmd: violation" line each on stderr, then
   exit 1.  The diagnostics gates below print a report instead. *)
let fail_on cmd = function
  | [] -> ()
  | violations ->
      List.iter (fun v -> Fmt.epr "%s: %s@." cmd v) violations;
      exit 1

let monitor_arg doc = Arg.(value & flag & info [ "monitor" ] ~doc)

let monitor_gate cmd m =
  if not (Mon.clean m) then begin
    Fmt.epr "%a" Diag.pp_report (Mon.report m);
    fail_on cmd [ "protocol monitor found " ^ plural (Mon.violations m) "violation" ]
  end

(* --monitor on a preset run: a summary line with the text report, then
   the gate. *)
let monitored cmd o =
  Option.iter (fun m ->
      if not o.json then
        Fmt.pr "monitor: %d events observed, %s@." (Mon.events_seen m)
          (plural (Mon.violations m) "violation");
      monitor_gate cmd m)

(* The diagnostics gate of check and verify-trace: errors, and warnings
   under --strict, exit 1 after the report. *)
let diagnostics_gate ~strict diags =
  if Diag.errors diags <> [] || (strict && Diag.warnings diags <> []) then
    exit 1

(* The preset runs (day, alloc, autotune): --smoke picks the CI preset,
   --seed overrides the preset's seed. *)
let smoke_arg doc = Arg.(value & flag & info [ "smoke" ] ~doc)

let preset_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Random seed (deterministic; default from the preset).")

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
          ~doc:
            "Allocation algorithm: $(b,greedy), $(b,memetic) or \
             $(b,optimal).  Ignored when $(b,-k) is above 0.")
  in
  let run name granularity n loads algorithm seed k =
    let backends = make_backends n loads in
    within ~n:(List.length backends) ~k @@ fun () ->
    match builtin_workload name granularity with
    | Error (`Msg m) -> prerr_endline m; exit 1
    | Ok workload ->
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
          Diag.errors (Cdbs_analysis.Check_allocation.check alloc)
        in
        if errors <> [] then begin
          Fmt.epr "%a@." Diag.pp_report errors;
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
      ret
        (const run $ workload_arg $ granularity_arg $ backends_arg $ loads_arg
        $ algorithm_arg $ seed_arg
        $ k_arg ~default:0
            "k-safety degree (0 = none).  Above 0 the placement is \
             $(b,Ksafety.allocate)'s: the greedy allocation plus zero-weight \
             replicas until every class is on K+1 backends; $(b,-a) is \
             ignored."))

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
  let module E = Cdbs_experiments in
  let sections =
    [
      ("tables", E.Tables.print_all); ("tpch", E.Fig_tpch.print_all);
      ("tpcapp", E.Fig_tpcapp.print_all); ("balance", E.Fig_balance.print_all);
      ("elastic", E.Fig_elastic.print_all); ("ablation", E.Ablation.print_all);
      ("migration", E.Fig_migration.print_all);
      ("faults", E.Fig_faults.print_all); ("overload", E.Fig_overload.print_all);
      ("day", E.Fig_day.print_all); ("zones", E.Fig_zones.print_all);
      ("alloc", E.Fig_alloc.print_all);
    ]
  in
  let all () = List.iter (fun (_, print) -> print ()) sections in
  let section_arg =
    Arg.(
      required
      & pos 0 (some (enum (sections @ [ ("all", all) ]))) None
      & info [] ~docv:"SECTION"
          ~doc:
            (Printf.sprintf
               "Experiment section: %s, or $(b,all) for every section in \
                that order."
               (String.concat ", "
                  (List.map (fun (name, _) -> "$(b," ^ name ^ ")") sections))))
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run a paper-reproduction experiment section")
    Term.(const (fun print -> print ()) $ section_arg)

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
      value
      & opt (positive 0. float) 2.
      & info [ "b"; "bandwidth" ] ~docv:"MB/S"
          ~doc:"Copy throttle per stream in MB/s.")
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
    let module C = Cdbs_experiments.Common in
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
      (fun p ->
        Fmt.pr "%10.0f%10.0f%12.2f%8d  %s@." p.C.t0 p.C.t1 p.C.avg_ms p.C.n
          p.C.phase)
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
    fail_on "migrate" (if failures = [] then [] else [ String.concat "; " failures ])
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
      $ rate_arg 40. $ duration_arg 600. $ at_arg $ show_plan_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* check — the static plan verifier                                    *)
(* ------------------------------------------------------------------ *)

module Check_w = Cdbs_analysis.Check_workload
module Check_a = Cdbs_analysis.Check_allocation
module Check_m = Cdbs_analysis.Check_migration

type check_result = {
  scenario : string;
  corrupted : bool;  (* --inject changed this scenario's artifact *)
  diagnostics : Diag.t list;
}

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
   verifier actually rejects broken artifacts with coded diagnostics.  Each
   corrupts the first (class, backend) pair it applies to, classes in
   workload order, and says what it did; [None] when no pair qualifies. *)
let inject_allocation_fault fault alloc =
  let module A = Core.Allocation in
  let module Q = Core.Query_class in
  let workload = A.workload alloc in
  let classes, applies, corrupt, describe =
    match fault with
    | `Locality ->
        ( workload.Core.Workload.reads,
          (fun b c -> not (A.holds alloc b c)),
          (fun b c -> A.set_assign alloc b c 0.1),
          Printf.sprintf "assigned %s to B%d which lacks its data" )
    | `Read_sum ->
        ( workload.Core.Workload.reads,
          (fun b c -> A.get_assign alloc b c > 1e-6),
          (fun b c -> A.set_assign alloc b c (A.get_assign alloc b c /. 2.)),
          Printf.sprintf "halved %s's share on B%d" )
    | `Unpin ->
        ( workload.Core.Workload.updates,
          (fun b (u : Q.t) ->
            not
              (Core.Fragment.Set.is_empty
                 (Core.Fragment.Set.inter u.Q.fragments (A.fragments_of alloc b)))),
          (fun b (u : Q.t) -> A.set_assign alloc b u (u.Q.weight /. 2.)),
          Printf.sprintf "unpinned update %s on B%d" )
  in
  let backends = List.init (A.num_backends alloc) Fun.id in
  List.find_map
    (fun (c : Q.t) ->
      List.find_opt (fun b -> applies b c) backends
      |> Option.map (fun b ->
             corrupt b c;
             describe c.Q.id (b + 1)))
    classes

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

let scenario_result name injected diagnostics =
  {
    scenario =
      (match injected with
      | None -> name
      | Some what -> Printf.sprintf "%s [injected fault: %s]" name what);
    corrupted = injected <> None;
    diagnostics;
  }

(* Lint a workload and verify the allocation an algorithm produces for it. *)
let check_allocation_scenario ~name ?schema ?(k = 0) ?topology ~workload
    ~alloc ~fault () =
  let workload_diags = Check_w.check ?schema workload in
  let injected = Option.bind fault (fun f -> inject_allocation_fault f alloc) in
  let alloc_diags = Check_a.check ~k ?topology alloc in
  scenario_result name injected (workload_diags @ alloc_diags)

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
  scenario_result name injected (plan_diags @ schedule_diags)

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
  let faults =
    [
      ("none", `None); ("locality", `Locality); ("read-sum", `Read_sum);
      ("unpin", `Unpin); ("lost-replica", `Lost_replica);
    ]
  in
  let inject_arg =
    Arg.(
      value & opt (enum faults) `None
      & info [ "inject" ] ~docv:"FAULT"
          ~doc:
            "Deliberately corrupt the checked artifact before verifying — \
             proves the verifier rejects it.  $(b,locality), $(b,read-sum) \
             and $(b,unpin) corrupt the allocation; $(b,lost-replica) \
             corrupts the migration plan.  A fault that finds nothing to \
             corrupt in the chosen workload exits 2.")
  in
  let run name granularity n loads algorithm seed k output strict inject =
    let backends = make_backends n loads in
    within ~n:(List.length backends) ~k @@ fun () ->
    (* The verifier reports; it must not trip the in-algorithm assertions
       installed by the experiments harness before it can do so. *)
    Core.Invariants.disable ();
    let rng () = Cdbs_util.Rng.create seed in
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
            migration ~corrupt:corrupt_plan ();
          ]
      | other ->
          prerr_endline ("check: unknown workload " ^ other);
          exit 2
    in
    if inject <> `None && not (List.exists (fun r -> r.corrupted) results)
    then begin
      Fmt.epr "check: --inject %s found nothing to corrupt in workload %s@."
        (fst (List.find (fun (_, f) -> f = inject) faults))
        name;
      exit 2
    end;
    let diags = List.concat_map (fun r -> r.diagnostics) results in
    emit output
      ~json:
        ("["
        ^ String.concat ","
            (List.map
               (fun r ->
                 Printf.sprintf
                   "{\"scenario\":%s,\"summary\":%s,\"diagnostics\":%s}"
                   (Diag.json_string r.scenario)
                   (Diag.json_string (Diag.summary r.diagnostics))
                   (Diag.list_to_json r.diagnostics))
               results)
        ^ "]")
      (fun () ->
        List.iter
          (fun r ->
            Fmt.pr "=== %s ===@.%a" r.scenario Diag.pp_report r.diagnostics)
          results;
        Fmt.pr "@.checked %s: %s, %s@."
          (plural (List.length results) "scenario")
          (plural (List.length (Diag.errors diags)) "error")
          (plural (List.length (Diag.warnings diags)) "warning"));
    diagnostics_gate ~strict diags
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically verify allocations, migration plans and workloads \
          against the paper's structural invariants (Eqs. 8-11, 14-15, \
          k-safety, expand-then-contract)")
    Term.(
      ret
        (const run $ workload_arg $ granularity_arg $ backends_arg $ loads_arg
        $ algorithm_arg $ seed_arg
        $ k_arg ~default:0 "k-safety degree to verify against."
        $ json_only "Emit the diagnostics as machine-readable JSON."
        $ strict_arg $ inject_arg))

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

(* The seeded fault run chaos and verify-trace share: a k-safe allocation
   of the 14h trace mix on -n backends, crash/recover faults at
   --mtbf/--mttr over --duration, and --rate req/s of the same mix. *)
type fault_run = {
  n : int;
  seed : int;
  k : int;
  mtbf : float;
  mttr : float;
  duration : float;
  rate : float;
}

let fault_run =
  let mtbf_arg =
    Arg.(
      value
      & opt (positive 0. float) 120.
      & info [ "mtbf" ] ~docv:"SECONDS"
          ~doc:"Mean time between failures per backend.")
  in
  let mttr_arg =
    Arg.(
      value
      & opt (positive 0. float) 25.
      & info [ "mttr" ] ~docv:"SECONDS" ~doc:"Mean time to recovery.")
  in
  Term.(
    const (fun n seed k mtbf mttr duration rate ->
        { n; seed; k; mtbf; mttr; duration; rate })
    $ backends_arg $ seed_arg
    $ k_arg ~default:1 "k-safety degree of the allocation under test."
    $ mtbf_arg $ mttr_arg $ duration_arg 600. $ rate_arg 20.)

let fault_run_alloc ?topology r =
  Core.Ksafety.allocate ?topology ~k:r.k
    (Cdbs_workloads.Trace.workload_at ~hour:14.)
    (Core.Backend.homogeneous r.n)

(* Arrivals uniform over the run, drawn after the fault timeline. *)
let fault_run_requests ~rng r =
  Cdbs_workloads.Spec.uniform_requests ~rng
    ~n:(int_of_float (r.rate *. r.duration))
    ~t0:0. ~span:r.duration
    (Cdbs_workloads.Trace.specs_at ~hour:14.)

let chaos_cmd =
  let max_down_arg =
    Arg.(
      value & opt (some int) None
      & info [ "max-down" ] ~docv:"N"
          ~doc:
            "Cap on simultaneously crashed backends (incidents beyond the \
             cap are dropped).  Keep it at or below $(b,--k) to test the \
             regime the allocation is built to absorb.")
  in
  let zones_arg =
    Arg.(
      value
      & opt (positive 0 int) 1
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
  let run c max_down zones correlated_mtbf partition_prob gate_monitor output
      gate =
    within ~n:c.n ~k:c.k ~zones @@ fun () ->
    let module Faults = Cdbs_faults in
    let module Sim = Cdbs_cluster.Simulator in
    let module Tel = Cdbs_telemetry in
    let topology =
      if zones > 1 then Some (Core.Topology.uniform ~zones c.n) else None
    in
    let alloc = fault_run_alloc ?topology c in
    let rng = Cdbs_util.Rng.create c.seed in
    let faults =
      Faults.Chaos.generate ~rng ~num_backends:c.n
        {
          Faults.Chaos.default with
          Faults.Chaos.mtbf = c.mtbf;
          mttr = c.mttr;
          horizon = c.duration;
          max_concurrent_down = max_down;
          correlated_mtbf;
          partition_prob;
          zones;
        }
    in
    let reqs = fault_run_requests ~rng c in
    let config = Sim.homogeneous_config c.n in
    let sink = Tel.Sink.create () in
    let monitor = Mon.create () in
    let fo =
      Sim.run_open_with_faults ~telemetry:sink ~monitor ?topology config alloc
        reqs ~faults
    in
    let count p =
      List.length
        (List.filter (fun (t : Faults.Fault.timed) -> p t.Faults.Fault.event)
           faults)
    in
    let crashes = count (function Faults.Fault.Crash _ -> true | _ -> false) in
    let partitions =
      count (function Faults.Fault.Partition _ -> true | _ -> false)
    in
    let zone_outages =
      count (function Faults.Fault.ZoneOutage _ -> true | _ -> false)
    in
    let trace_dropped = Tel.Trace.dropped sink.Tel.Sink.trace in
    let p50_ms = 1000. *. fo.Sim.run.Sim.p50_response in
    let p95_ms = 1000. *. fo.Sim.run.Sim.p95_response in
    let p99_ms = 1000. *. fo.Sim.run.Sim.p99_response in
    let total_downtime = Array.fold_left ( +. ) 0. fo.Sim.downtime in
    let utilization = fo.Sim.run.Sim.utilization in
    (* The control-loop triple is structurally zero here (no loop runs in
       this scenario); the fields are present so the day/chaos/autotune
       JSON payloads share one schema. *)
    emit output
      ~json:
        (Printf.sprintf
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
            \"reallocations\":0,\"rollbacks\":0,\"drift_score\":0}"
           c.seed c.n c.k zones c.mtbf c.mttr c.duration c.rate
           (List.length faults) crashes partitions zone_outages fo.Sim.offered
           fo.Sim.run.Sim.completed fo.Sim.availability fo.Sim.aborted
           fo.Sim.timeouts fo.Sim.retried_requests fo.Sim.retries
           (1000. *. fo.Sim.run.Sim.avg_response)
           p50_ms p95_ms p99_ms (json_floats utilization)
           fo.Sim.cancelled_work fo.Sim.catch_up_mb
           (List.length fo.Sim.recoveries)
           total_downtime fo.Sim.max_concurrent_down trace_dropped
           (Mon.violations monitor))
      (fun () ->
        Fmt.pr "fault timeline (seed %d, mtbf %.0fs, mttr %.0fs):@." c.seed
          c.mtbf c.mttr;
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
          "cancelled %.2fs of in-flight work, replayed %.2f MB at %d \
           rejoins, %.1fs total downtime, max %d down at once@."
          fo.Sim.cancelled_work fo.Sim.catch_up_mb
          (List.length fo.Sim.recoveries)
          total_downtime fo.Sim.max_concurrent_down;
        Fmt.pr "%d partitions, %d zone outages; monitor: %d events, %s; \
                trace dropped %d@."
          partitions zone_outages (Mon.events_seen monitor)
          (plural (Mon.violations monitor) "violation")
          trace_dropped);
    fail_on "chaos"
      (Slo.check gate ~availability:fo.Sim.availability
         ~p99_s:fo.Sim.run.Sim.p99_response ~shed_rate:0.);
    if gate_monitor then monitor_gate "chaos" monitor
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a seeded chaos experiment: crash/recover/slowdown faults — \
          plus correlated network partitions and zone outages — against a \
          (fault-domain-aware) k-safe allocation, with retries, fencing, \
          catch-up and degradation metrics")
    Term.(
      ret
        (const run $ fault_run $ max_down_arg $ zones_arg $ correlated_mtbf_arg
        $ partition_prob_arg
        $ monitor_arg
            "Exit non-zero on any protocol-monitor violation (violations \
             are always counted and reported)."
        $ json_only "Emit the outcome as machine-readable JSON."
        $ slo_gate ~availability:true "the run"))

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
  let run n seed rate duration slow_factor slow_backend deadline output gate =
    within ~n ?slow_backend @@ fun () ->
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
    emit output
      ~json:
        (Printf.sprintf
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
            \"acceptance\":%b}"
           seed n rate duration victim slow_factor deadline u.Fo.availability
           u.Fo.p50_ms u.Fo.p95_ms u.Fo.p99_ms u.Fo.shed u.Fo.timeouts
           u.Fo.wasted_s d.Fo.availability d.Fo.p50_ms d.Fo.p95_ms d.Fo.p99_ms
           d.Fo.shed d.Fo.shed_updates d.Fo.timeouts d.Fo.hedged
           d.Fo.hedge_wins d.Fo.breaker_trips d.Fo.wasted_s shed_rate
           (json_floats d.Fo.utilization)
           trace_dropped (Mon.violations monitor) ok)
      (fun () ->
        Fmt.pr
          "overload: %d backends, %.0f req/s for %.0fs, backend %d at \
           x%.1f for the middle half, deadline %.2fs@."
          n rate duration victim slow_factor deadline;
        Fmt.pr "  %a@." Fo.pp_stats ("undefended", u);
        Fmt.pr "  %a@." Fo.pp_stats ("defended", d);
        Fmt.pr "  defended utilization: %a  (shed rate %.4f)@."
          Fmt.(array ~sep:sp (fmt "%.3f"))
          d.Fo.utilization shed_rate;
        Fmt.pr "  monitor: %s; trace dropped %d@."
          (plural (Mon.violations monitor) "violation")
          trace_dropped;
        if ok then Fmt.pr "  acceptance: ok@."
        else begin
          Fmt.pr "  acceptance FAILED:@.";
          List.iter (fun v -> Fmt.pr "    - %s@." v) violations
        end);
    fail_on "overload"
      (violations
      @ Slo.check gate ~availability:d.Fo.availability
          ~p99_s:(d.Fo.p99_ms /. 1000.) ~shed_rate)
  in
  Cmd.v
    (Cmd.info "overload"
       ~doc:
         "Run the overload / gray-failure experiment at one offered rate: \
          undefended vs defended (admission control, circuit breakers, \
          hedged reads, deadline budgets), with acceptance and CI threshold \
          gates")
    Term.(
      ret
        (const run $ backends_arg $ seed_arg $ rate_arg 240.
        $ duration_arg 120. $ slow_factor_arg $ slow_backend_arg $ deadline_arg
        $ json_only "Emit the outcome as machine-readable JSON."
        $ slo_gate ~p99:true ~shed_rate:true "the defended run"))

(* ------------------------------------------------------------------ *)
(* day                                                                 *)
(* ------------------------------------------------------------------ *)

let day_cmd =
  let module Fd = Cdbs_experiments.Fig_day in
  let scale_arg =
    Arg.(
      value
      & opt (some (positive 0. float)) None
      & info [ "scale" ] ~docv:"X"
          ~doc:"Multiplier on the diurnal trace's request rate.")
  in
  let window_arg =
    Arg.(
      value
      & opt (some (positive 0. float)) None
      & info [ "window-minutes" ] ~docv:"MIN"
          ~doc:"Scheduling/autoscaling window length in minutes.")
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
      value
      & opt (some (positive 0 int)) None
      & info [ "trace-capacity" ] ~docv:"N"
          ~doc:
            "Telemetry trace ring capacity in events (default from the \
             preset). The ring evicts oldest-first, so a capacity below the \
             run's event volume drops early events from the retained trace; \
             raise it to keep the full day for $(b,--monitor) or offline \
             analysis.")
  in
  let run smoke seed scale window_minutes output gate with_monitor autotune
      trace_capacity =
    let base = if smoke then Fd.smoke else Fd.default in
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
      if with_monitor || autotune then Some (Mon.create ()) else None
    in
    let r = Fd.run ~params ?monitor () in
    emit output
      ~json:(Fd.to_json ?monitor_violations:(Option.map Mon.violations monitor) r)
      (fun () ->
        Fmt.pr "day: seed %d, scale %g, %g-minute windows, %d-%d nodes%s@."
          params.Fd.seed params.Fd.scale params.Fd.window_minutes
          params.Fd.nodes_min params.Fd.nodes_max
          (if autotune then ", autotune on" else "");
        Fmt.pr "%a@." Slo.pp r.Fd.report;
        Fmt.pr "%d events in %.1f s (%.0f events/s)@." r.Fd.events r.Fd.wall_s
          r.Fd.events_per_s);
    fail_on "day" (slo_violations gate r.Fd.report);
    monitored "day" output monitor
  in
  Cmd.v
    (Cmd.info "day"
       ~doc:
         "Run the day-in-production SLO macro-benchmark: 24h diurnal load x \
          autoscaling x live migration x chaos faults x overload defenses, \
          with an SLO report and CI threshold gates")
    Term.(
      const run
      $ smoke_arg
          "Run the scaled-down CI preset (same scenario shape, ~3% of the \
           events) instead of the full macro-benchmark."
      $ preset_seed_arg $ scale_arg $ window_arg
      $ bench_output "BENCH_day.json"
      $ slo_gate ~availability:true ~p99:true ~shed_rate:true "the day"
      $ monitor_arg
          "Attach the protocol monitor to the day's event stream and exit \
           non-zero on any temporal-invariant violation."
      $ autotune_arg $ trace_capacity_arg)

(* ------------------------------------------------------------------ *)
(* alloc — massive-instance allocator benchmark                        *)
(* ------------------------------------------------------------------ *)

let alloc_cmd =
  let module Fa = Cdbs_experiments.Fig_alloc in
  let count names doc =
    Arg.(value & opt (some (positive 0 int)) None & info names ~docv:"N" ~doc)
  in
  let fragments_arg = count [ "fragments" ] "Fragment count." in
  let reads_arg = count [ "reads" ] "Read query-class count." in
  let updates_arg =
    Arg.(
      value & opt (some int) None
      & info [ "updates" ] ~docv:"N" ~doc:"Update query-class count.")
  in
  let backends_arg = count [ "n"; "backends" ] "Backend count." in
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
             greedy, memetic or repaired allocation.")
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
  let run smoke fragments reads updates backends seed strategy islands
      generations population domains no_repair delta_frac budget check
      max_seconds max_moved output =
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
    let r = Fa.run ~params () in
    emit output ~json:(Fa.to_json r) (fun () -> Fmt.pr "%a" Fa.pp_result r);
    let errors =
      r.Fa.check_errors
      + (match r.Fa.memetic with Some m -> m.Fa.memetic_errors | None -> 0)
      + match r.Fa.repair with Some rp -> rp.Fa.repair_errors | None -> 0
    in
    fail_on "alloc"
      (List.filter_map Fun.id
         [
           (if check && errors > 0 then
              Some ("dense checker found " ^ plural errors "error")
            else None);
           (match max_seconds with
           | Some s when r.Fa.greedy_s > s ->
               Some (Printf.sprintf "greedy took %.2f s > %.2f s" r.Fa.greedy_s s)
           | _ -> None);
           (match (max_moved, r.Fa.repair) with
           | Some frac, Some rp when rp.Fa.moved_frac > frac ->
               Some
                 (Printf.sprintf "repair moved %.4f > %.4f of fragments"
                    rp.Fa.moved_frac frac)
           | _ -> None);
         ])
  in
  Cmd.v
    (Cmd.info "alloc"
       ~doc:
         "Run the massive-instance allocator benchmark: dense greedy at \
          10^5-10^6 fragments, optional Domain-parallel memetic islands, \
          and O(delta) incremental repair timed against a from-scratch \
          re-solve, with checker and wall-clock gates for CI")
    Term.(
      const run
      $ smoke_arg
          "Run the CI preset (100k fragments x 50 backends) instead of the \
           full 10^6-fragment benchmark."
      $ fragments_arg $ reads_arg $ updates_arg $ backends_arg
      $ preset_seed_arg $ strategy_arg $ islands_arg $ generations_arg
      $ population_arg $ domains_arg $ no_repair_arg $ delta_frac_arg
      $ budget_arg $ check_arg $ max_seconds_arg $ max_moved_arg
      $ bench_output "BENCH_alloc.json")

(* ------------------------------------------------------------------ *)
(* autotune — self-tuning vs static under workload drift               *)
(* ------------------------------------------------------------------ *)

let autotune_cmd =
  let module Fdr = Cdbs_experiments.Fig_drift in
  let chaos_arg =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Add crash/recover renewals and a seeded workload-shift stream \
             (shared verbatim by both arms): drift and crashes together.")
  in
  let require_win_arg =
    Arg.(
      value & flag
      & info [ "require-win" ]
          ~doc:
            "Exit non-zero unless the self-tuning arm beats the static arm \
             on both p99 and availability — the CI headline gate.")
  in
  let run smoke seed chaos output with_monitor require_win gate =
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
    let tuned = r.Fdr.tuned.Fdr.report and static = r.Fdr.static_.Fdr.report in
    emit output
      ~json:(Fdr.to_json ?monitor_violations:(Option.map Mon.violations monitor) r)
      (fun () ->
        Fmt.pr
          "autotune: seed %d, %d windows x %g min, %d nodes, step at window \
           %d%s@."
          params.Fdr.seed params.Fdr.windows params.Fdr.window_minutes
          params.Fdr.nodes params.Fdr.step_window
          (if params.Fdr.chaos then ", chaos on" else "");
        Fmt.pr "@.static allocation:@.%a@." Slo.pp static;
        Fmt.pr "@.self-tuning:@.%a@." Slo.pp tuned;
        Fmt.pr
          "@.reallocations %d (%d rolled back, %d committed), peak drift \
           %.2f@."
          r.Fdr.reallocations r.Fdr.rollbacks r.Fdr.commits r.Fdr.peak_drift;
        Fmt.pr
          "verdict: self-tuning %s (p99 %.0f ms vs %.0f ms, availability \
           %.4f vs %.4f)@."
          (if Fdr.verdict r then "wins" else "does NOT win")
          (1000. *. tuned.Slo.p99_s) (1000. *. static.Slo.p99_s)
          tuned.Slo.availability static.Slo.availability;
        Fmt.pr "%d events in %.1f s (%.0f events/s)@." r.Fdr.events
          r.Fdr.wall_s r.Fdr.events_per_s);
    fail_on "autotune" (slo_violations gate tuned);
    if require_win && not (Fdr.verdict r) then
      fail_on "autotune"
        [
          Printf.sprintf
            "self-tuning did not beat the static allocation (p99 %.1f ms vs \
             %.1f ms, availability %.6f vs %.6f)"
            (1000. *. tuned.Slo.p99_s) (1000. *. static.Slo.p99_s)
            tuned.Slo.availability static.Slo.availability;
        ];
    monitored "autotune" output monitor
  in
  Cmd.v
    (Cmd.info "autotune"
       ~doc:
         "Run the workload-drift experiment: the self-healing control loop \
          (measured cost model, drift detection, guarded live reallocation \
          with canary + automatic rollback) against a static allocation \
          under an adversarial step-change, with SLO gates for CI")
    Term.(
      const run
      $ smoke_arg
          "Run the scaled-down CI preset (shorter windows, lower rate) \
           instead of the full drift experiment."
      $ preset_seed_arg $ chaos_arg
      $ bench_output "BENCH_drift.json"
      $ monitor_arg
          "Attach the protocol monitor to both arms' event streams \
           (serving protocol plus the control protocol, TRC016-018) and \
           exit non-zero on any violation."
      $ require_win_arg
      $ slo_gate ~availability:true ~p99:true "the self-tuning arm")

(* ------------------------------------------------------------------ *)
(* verify-trace — the protocol sanitizer                                *)
(* ------------------------------------------------------------------ *)

let verify_trace_cmd =
  let module Faults = Cdbs_faults in
  let module Sim = Cdbs_cluster.Simulator in
  let module Tel = Cdbs_telemetry in
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
  let run c deadline output strict inject =
    within ~n:c.n ~k:c.k @@ fun () ->
    (* The sanitizer reports; like check, it must not trip the in-engine
       assertions before it can do so. *)
    Core.Invariants.disable ();
    let policy = Cdbs_experiments.Fig_overload.defenses ~deadline_s:deadline in
    let chaos_params =
      {
        Faults.Chaos.default with
        Faults.Chaos.mtbf = c.mtbf;
        mttr = c.mttr;
        horizon = c.duration;
        max_concurrent_down = Some c.k;
      }
    in
    let rng = Cdbs_util.Rng.create c.seed in
    let faults = Faults.Chaos.generate ~rng ~num_backends:c.n chaos_params in
    (* Static lints first: the defense bundle and the fault timeline. *)
    let static_diags =
      Cdbs_analysis.Check_policy.check policy
      @ Cdbs_analysis.Check_faults.check_params ~k:c.k chaos_params
      @ Cdbs_analysis.Check_faults.check_schedule ~k:c.k ~num_backends:c.n
          faults
    in
    let alloc = fault_run_alloc c in
    let reqs = fault_run_requests ~rng c in
    (* The monitor subscribes to the full stream, so the ring capacity
       only decides whether a TRC012 overflow warning appears; size it to
       stay warning-clean at the default load. *)
    let sink =
      Tel.Sink.create
        ~capacity:(max 4096 (8 * int_of_float (c.rate *. c.duration)))
        ()
    in
    let monitor = Mon.create () in
    ignore (Mon.attach monitor sink);
    let config = Sim.homogeneous_config c.n in
    let fo =
      Sim.run_open_with_faults
        ~rng:(Cdbs_util.Rng.create (c.seed + 1))
        ~resilience:policy ~telemetry:sink config alloc reqs ~faults
    in
    (* Deliberate corruption: a synthetic mini-run of protocol events the
       monitor must reject (its own run.start isolates it from the real
       run's state). *)
    let tr = sink.Tel.Sink.trace in
    let ev = Tel.Trace.push tr in
    let serve at ~finish =
      ev
        (Backend_serve
           { at; backend = 0; kind = Read "Q1"; start = at; finish })
    in
    let heal at replay_mb =
      ev (Backend_heal { at; backend = 0; epoch = 1; replay_mb })
    in
    let retry at attempt remaining =
      ev
        (Request_retry
           { at; uid = 7; attempt; retry_at = at +. 0.5;
             remaining_s = Some remaining })
    in
    let session () =
      ev
        (Control_session
           { at = 1.; threshold = 1.; hysteresis = 0.; cooldown_s = 600.;
             canary_windows = 1 })
    in
    let realloc ?(moved_mb = 0.) at id =
      ev (Control_reallocate_start { at; id; moved_mb })
    in
    let injected =
      match inject with
      | `None -> None
      | ( `Breaker_hop | `Rejoin | `Deadline | `Down_serve | `Split_brain
        | `Overlap_realloc | `Cooldown_trigger | `Rogue_rollback ) as f ->
          ev (Run_start { at = 0.; backends = c.n; offered = 0 });
          Some
            (match f with
            | `Breaker_hop ->
                ev
                  (Breaker_transition
                     { at = 1.; backend = 0; state = Half_open });
                "closed -> half_open breaker hop"
            | `Rejoin ->
                ev (Backend_crash { at = 1.; backend = 0 });
                ev (Backend_recover { at = 2.; backend = 0; replay_mb = 4. });
                serve 3. ~finish:3.1;
                "read served before catch-up finished"
            | `Deadline ->
                retry 1. 1 0.8;
                retry 2. 2 1.6;
                "deadline budget grew across retries"
            | `Down_serve ->
                ev (Backend_crash { at = 1.; backend = 0 });
                serve 2. ~finish:2.2;
                "work booked on a crashed backend"
            | `Split_brain ->
                (* The full partition pathology: the isolated minority keeps
                   serving, the heal fence is ignored, and a replayed heal
                   reuses an old epoch. *)
                ev (Backend_partition { at = 1.; backend = 0 });
                serve 2. ~finish:2.1;
                heal 3. 4.;
                serve 4. ~finish:4.1;
                ev (Backend_fence_lift { at = 5.; backend = 0; epoch = 1 });
                ev (Backend_partition { at = 6.; backend = 0 });
                heal 7. 0.;
                "served while partitioned, read through the heal fence, \
                 stale fencing epoch"
            | `Overlap_realloc ->
                session ();
                realloc ~moved_mb:64. 2. 1;
                realloc ~moved_mb:32. 3. 2;
                "second reallocation started while the first is still in \
                 flight"
            | `Cooldown_trigger ->
                session ();
                realloc 2. 1;
                ev (Control_commit { at = 3.; id = 1 });
                ev
                  (Control_trigger
                     { at = 4.; score = 2.; threshold = 1.;
                       cooldown_s = 600. });
                "drift trigger inside the post-action cooldown"
            | `Rogue_rollback ->
                session ();
                realloc 2. 1;
                ev (Control_rollback { at = 3.; id = 1 });
                "rollback with no guardrail breach since the cutover")
    in
    let diags = Diag.sort (static_diags @ Mon.report monitor) in
    let errors = List.length (Diag.errors diags) in
    let warnings = List.length (Diag.warnings diags) in
    emit output
      ~json:
        (Printf.sprintf
           "{\"seed\":%d,\"backends\":%d,\"k\":%d,\"mtbf\":%g,\"mttr\":%g,\
            \"duration\":%g,\"rate\":%g,\"deadline_s\":%g,\
            \"offered\":%d,\"completed\":%d,\"availability\":%.6f,\
            \"events_seen\":%d,\"trace_dropped\":%d,\
            \"monitor_violations\":%d,\"injected\":%s,\
            \"errors\":%d,\"warnings\":%d,\"diagnostics\":%s}"
           c.seed c.n c.k c.mtbf c.mttr c.duration c.rate deadline
           fo.Sim.offered fo.Sim.run.Sim.completed fo.Sim.availability
           (Mon.events_seen monitor)
           (Tel.Trace.dropped tr) (Mon.violations monitor)
           (match injected with
           | Some what -> Diag.json_string what
           | None -> "null")
           errors warnings (Diag.list_to_json diags))
      (fun () ->
        Fmt.pr
          "verify-trace: %d backends, k=%d, seed %d, mtbf %.0fs, mttr %.0fs, \
           %.0fs at %.0f req/s, deadline %.2fs@."
          c.n c.k c.seed c.mtbf c.mttr c.duration c.rate deadline;
        Fmt.pr
          "run: offered %d, completed %d, availability %.4f; monitor \
           observed %d events@."
          fo.Sim.offered fo.Sim.run.Sim.completed fo.Sim.availability
          (Mon.events_seen monitor);
        Option.iter (Fmt.pr "injected fault: %s@.") injected;
        Fmt.pr "%a" Diag.pp_report diags;
        Fmt.pr "@.verified: %s, %s@." (plural errors "error")
          (plural warnings "warning"));
    diagnostics_gate ~strict diags
  in
  Cmd.v
    (Cmd.info "verify-trace"
       ~doc:
         "Run a seeded chaos scenario with the full defense stack and the \
          protocol monitor attached — temporal invariants over the \
          simulation trace plus resilience/fault configuration lints, with \
          non-zero exit on violations")
    Term.(
      ret
        (const run $ fault_run $ deadline_arg
        $ json_only "Emit the diagnostics as machine-readable JSON."
        $ strict_arg $ inject_arg))

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
