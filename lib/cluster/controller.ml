module Schema = Cdbs_storage.Schema
module Database = Cdbs_storage.Database
module Executor = Cdbs_storage.Executor
module Datagen = Cdbs_storage.Datagen
module Analyze = Cdbs_sql.Analyze
module Journal = Cdbs_core.Journal
module Classification = Cdbs_core.Classification
module Fragment = Cdbs_core.Fragment
module Allocation = Cdbs_core.Allocation
module Memetic = Cdbs_core.Memetic
module Backend = Cdbs_core.Backend
module Physical = Cdbs_core.Physical
module Planner = Cdbs_migration.Planner
module Breaker = Cdbs_resilience.Breaker

type backend_state = {
  mutable db : Database.t;
  mutable pending_cost : float;  (** accumulated routed cost, for balance *)
}

(* One table copy in flight: a snapshot "ships" at the configured bandwidth
   while updates touching the table accumulate in the delta journal. *)
type copy_state = {
  cp_dest : int;
  cp_table : string;
  cp_size : float;  (** megabytes to ship *)
  staging : Database.t;  (** snapshot taken when the copy started *)
  mutable cp_shipped : float;
  mutable cp_deltas : string list;  (** captured SQL, newest first *)
}

type migration_state = {
  mig_target : Allocation.t;
  mig_plan : Planner.plan;
  mutable mig_pending : Planner.move list;  (** copies not yet started *)
  mutable mig_in_flight : copy_state option;
  mig_bandwidth : float;  (** megabytes shipped per submitted request *)
  mutable mig_shipped : float;
  mutable mig_done : int;
  mutable mig_replayed : int;  (** delta statements replayed at cutovers *)
}

type migration_progress = {
  tables_total : int;
  tables_done : int;
  mb_total : float;
  mb_shipped : float;
  delta_pending : int;
  replayed_statements : int;
}

type t = {
  schema : Schema.t;
  rows : (string * int) list;
  master : Database.t;  (** authoritative full copy, source for ETL *)
  stats_cache : (string, Cdbs_storage.Table_stats.t) Hashtbl.t;
  backends : backend_state array;
  journal : Journal.t;
  rng : Cdbs_util.Rng.t;
  breaker : Breaker.t;
      (* per-backend circuit breaker over read routing; its clock is the
         controller's request counter, so cool-downs are measured in
         submitted statements *)
  mutable allocation : Allocation.t option;
  mutable migration : migration_state option;
  mutable processed : int;
  mutable total_cost : float;
  mutable clock : float;
}

let create ~schema ~rows ~backends ~seed =
  if backends <= 0 then invalid_arg "Controller.create: need backends";
  let rng = Cdbs_util.Rng.create seed in
  let master = Database.create schema in
  Datagen.populate rng master ~rows_per_table:rows;
  let mk () =
    let db = Database.create schema in
    List.iter
      (fun tbl ->
        match Database.copy_table_into ~src:master ~dst:db tbl.Schema.tbl_name with
        | Ok _ -> ()
        | Error e -> invalid_arg ("Controller.create: " ^ e))
      schema;
    { db; pending_cost = 0. }
  in
  {
    schema;
    rows;
    master;
    stats_cache = Hashtbl.create 8;
    backends = Array.init backends (fun _ -> mk ());
    journal = Journal.create ();
    rng;
    breaker = Breaker.create backends;
    allocation = None;
    migration = None;
    processed = 0;
    total_cost = 0.;
    clock = 0.;
  }

(* Deterministic cost estimate, the paper's "cost estimation from the
   query optimizer" alternative to measured execution times: per referenced
   table, the estimated scan bytes under the statement's predicate
   (selectivity from cached table statistics, whose column statistics are
   computed when a predicate first names the column). *)
let table_stats t name =
  match Hashtbl.find_opt t.stats_cache name with
  | Some st -> st
  | None -> (
      match Database.table t.master name with
      | None -> Cdbs_storage.Table_stats.empty
      | Some tbl ->
          let st = Cdbs_storage.Table_stats.collect tbl in
          Hashtbl.replace t.stats_cache name st;
          st)

let where_of = function
  | Cdbs_sql.Ast.Select { where; joins = []; _ } -> where
  | Cdbs_sql.Ast.Update { where; _ } | Cdbs_sql.Ast.Delete { where; _ } ->
      where
  | _ -> None

let cost_of_statement t stmt (fp : Analyze.footprint) =
  let where = where_of stmt in
  List.fold_left
    (fun acc tbl ->
      acc
      +. Cdbs_storage.Table_stats.estimate_scan_bytes (table_stats t tbl)
           where
         /. 1048576.)
    0.001 fp.Analyze.tables

let holds_tables st tables =
  List.for_all (fun tbl -> Database.table st.db tbl <> None) tables

(* ------------------------------------------------------------------ *)
(* Live migration machinery (used by submit; entry points further down) *)
(* ------------------------------------------------------------------ *)

(* Physical placement is table-granular: the table a fragment lives in. *)
let table_of (f : Fragment.t) =
  match f.Fragment.kind with
  | Fragment.Table name -> name
  | Fragment.Column { table; _ } | Fragment.Range { table; _ } -> table

(* Cut over the in-flight copy: replay its captured deltas on the staged
   snapshot, then swap the staged table into the destination's catalog. *)
let cutover t (mig : migration_state) (cp : copy_state) =
  List.iter
    (fun sql ->
      match Cdbs_sql.Parser.parse sql with
      | exception Cdbs_sql.Parser.Parse_error _ -> ()
      | stmt ->
          ignore (Executor.execute cp.staging stmt);
          mig.mig_replayed <- mig.mig_replayed + 1)
    (List.rev cp.cp_deltas);
  (match
     Database.install_table ~src:cp.staging
       ~dst:t.backends.(cp.cp_dest).db cp.cp_table
   with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Controller.cutover: " ^ e));
  mig.mig_done <- mig.mig_done + 1;
  mig.mig_in_flight <- None

(* Contract phase: every copy has cut over, so dropping the surplus copies
   can no longer strand a query class without a live replica. *)
let finish_migration t (mig : migration_state) =
  List.iter
    (fun (d : Planner.drop) ->
      Database.drop_table t.backends.(d.Planner.at_backend).db (table_of d.Planner.victim))
    mig.mig_plan.Planner.drops;
  t.allocation <- Some mig.mig_target;
  t.migration <- None

(* Ship [budget] megabytes of copy work.  Leftover budget flows into the
   next queued copy; snapshots are taken lazily when a copy starts. *)
let advance_migration t ~budget =
  match t.migration with
  | None -> ()
  | Some mig ->
      let budget = ref budget in
      let continue_ = ref true in
      while !continue_ do
        (match mig.mig_in_flight with
        | None -> (
            match mig.mig_pending with
            | [] ->
                finish_migration t mig;
                continue_ := false
            | mv :: rest ->
                mig.mig_pending <- rest;
                let table = table_of mv.Planner.fragment in
                let staging =
                  Database.create_partial t.schema ~tables:[ table ]
                in
                (match
                   Database.copy_table_into ~src:t.master ~dst:staging table
                 with
                | Ok _ -> ()
                | Error e ->
                    invalid_arg ("Controller.advance_migration: " ^ e));
                mig.mig_in_flight <-
                  Some
                    {
                      cp_dest = mv.Planner.dest;
                      cp_table = table;
                      cp_size = mv.Planner.size;
                      staging;
                      cp_shipped = 0.;
                      cp_deltas = [];
                    })
        | Some cp ->
            let room = cp.cp_size -. cp.cp_shipped in
            if !budget >= room then begin
              budget := !budget -. room;
              cp.cp_shipped <- cp.cp_size;
              mig.mig_shipped <- mig.mig_shipped +. room;
              cutover t mig cp
            end
            else begin
              cp.cp_shipped <- cp.cp_shipped +. !budget;
              mig.mig_shipped <- mig.mig_shipped +. !budget;
              budget := 0.;
              continue_ := false
            end)
      done

let submit t sql =
  match Cdbs_sql.Parser.parse sql with
  | exception Cdbs_sql.Parser.Parse_error m -> Error ("parse error: " ^ m)
  | stmt -> (
      let fp =
        Analyze.footprint_of_statement ~schema:(Schema.to_assoc t.schema) stmt
      in
      let cost = cost_of_statement t stmt fp in
      t.clock <- t.clock +. 1.;
      Journal.record_at t.journal ~at:t.clock ~sql ~cost;
      t.processed <- t.processed + 1;
      t.total_cost <- t.total_cost +. cost;
      (* The background copier ships its per-request budget: the rebalance
         makes progress exactly while the system keeps serving. *)
      (match t.migration with
      | Some mig -> advance_migration t ~budget:mig.mig_bandwidth
      | None -> ());
      if fp.Analyze.is_update then begin
        (* Updated tables get fresh statistics on next use. *)
        List.iter (Hashtbl.remove t.stats_cache) fp.Analyze.tables;
        (* An update hitting a table whose snapshot is on the wire goes to
           the delta journal and is replayed before that copy cuts over. *)
        (match t.migration with
        | Some { mig_in_flight = Some cp; _ }
          when List.mem cp.cp_table fp.Analyze.tables ->
            cp.cp_deltas <- sql :: cp.cp_deltas
        | _ -> ());
        (* ROWA: run on the master and every backend holding the table. *)
        let result = Executor.execute t.master stmt in
        Array.iter
          (fun st ->
            if holds_tables st fp.Analyze.tables then begin
              st.pending_cost <- st.pending_cost +. cost;
              ignore (Executor.execute st.db stmt)
            end)
          t.backends;
        result
      end
      else begin
        (* Least pending eligible backend.  The circuit breaker then steers
           around slow-but-alive backends:
           candidates whose breaker is open are skipped unless every
           candidate's is (fail open — a suspect replica still beats
           refusing the read). *)
        let pick ~use_breaker =
          let best = ref None in
          Array.iteri
            (fun i st ->
              if
                holds_tables st fp.Analyze.tables
                && ((not use_breaker)
                   || Breaker.allows t.breaker ~backend:i ~now:t.clock)
              then
                match !best with
                | None -> best := Some i
                | Some j ->
                    if st.pending_cost < t.backends.(j).pending_cost then
                      best := Some i)
            t.backends;
          !best
        in
        let best =
          match pick ~use_breaker:true with
          | Some _ as b -> b
          | None -> pick ~use_breaker:false
        in
        match best with
        | None -> Error "no live backend holds the referenced tables"
        | Some i -> (
            let st = t.backends.(i) in
            st.pending_cost <- st.pending_cost +. cost;
            match Executor.execute st.db stmt with
            | Ok _ as ok ->
                (* The estimated cost stands in for measured latency. *)
                Breaker.record_success t.breaker ~backend:i ~now:t.clock
                  ~latency:cost;
                ok
            | Error _ as err ->
                Breaker.record_failure t.breaker ~backend:i ~now:t.clock;
                err)
      end)

let journal t = t.journal
let allocation t = t.allocation
let breaker t = t.breaker

let backend_tables t =
  Array.to_list
    (Array.map (fun st -> Database.table_names st.db) t.backends)

let stats t = (t.processed, t.total_cost)

(* Classify the history and compute the next allocation, plus the fragment
   sets describing what each backend stores right now — shared by the
   offline rebuild and the live migration paths. *)
let classified_workload t =
  let size_of = Classification.default_sizes ~schema:t.schema ~rows:t.rows in
  Classification.classify ~schema:t.schema ~size_of Classification.By_table
    t.journal

let compute_target t =
  if Journal.length t.journal = 0 then Error "empty query history"
  else begin
    let size_of =
      Classification.default_sizes ~schema:t.schema ~rows:t.rows
    in
    let workload = classified_workload t in
    let backends = Backend.homogeneous (Array.length t.backends) in
    let params = { Memetic.default_params with Memetic.iterations = 40 } in
    let alloc = Memetic.allocate ~params ~rng:t.rng workload backends in
    let current_sets =
      Array.to_list
        (Array.map
           (fun st ->
             List.fold_left
               (fun acc name ->
                 let kind = Fragment.Table name in
                 Fragment.Set.add { Fragment.kind; size = size_of kind } acc)
               Fragment.Set.empty
               (Database.table_names st.db))
           t.backends)
    in
    Ok (alloc, current_sets)
  end

(* Debug-mode assertion: before deploying, run the full static verifier
   over the target allocation (and, for live paths, the migration plan).
   No-op unless Cdbs_core.Invariants checks are active. *)
let assert_target ~context alloc =
  if Cdbs_core.Invariants.active () then
    Cdbs_analysis.Check_allocation.check_exn ~context alloc

let assert_plan ~context alloc plan =
  if Cdbs_core.Invariants.active () then
    Cdbs_analysis.Check_migration.check_plan_exn ~context
      ~workload:(Allocation.workload alloc) plan

let reallocate t () =
  if t.migration <> None then Error "a live migration is in progress"
  else
  match compute_target t with
  | Error e -> Error e
  | Ok (alloc, current_sets) ->
    assert_target ~context:"Controller.reallocate" alloc;
    let plan = Physical.plan_scaled ~old_fragments:current_sets alloc in
    (* Rebuild each physical node with exactly the tables of the new
       backend mapped onto it. *)
    Array.iteri
      (fun v _u ->
        let wanted =
          Fragment.Set.fold
            (fun f acc -> table_of f :: acc)
            (Allocation.fragments_of alloc v) []
          |> List.sort_uniq String.compare
        in
        let db = Database.create_partial t.schema ~tables:wanted in
        List.iter
          (fun tbl ->
            match Database.copy_table_into ~src:t.master ~dst:db tbl with
            | Ok _ -> ()
            | Error e -> invalid_arg ("Controller.reallocate: " ^ e))
          wanted;
        t.backends.(v).db <- db;
        t.backends.(v).pending_cost <- 0.)
      plan.Physical.mapping;
    t.allocation <- Some alloc;
    Ok plan.Physical.transfer

(* ------------------------------------------------------------------ *)
(* Live migration entry points                                         *)
(* ------------------------------------------------------------------ *)

let begin_reallocate_live t ?(bandwidth_mb_per_request = 5.) () =
  if t.migration <> None then Error "a live migration is already in progress"
  else if bandwidth_mb_per_request <= 0. then
    Error "bandwidth must be positive"
  else
    match compute_target t with
    | Error e -> Error e
    | Ok (alloc, current_sets) ->
        assert_target ~context:"Controller.begin_reallocate_live" alloc;
        let plan = Planner.make ~old_fragments:current_sets alloc in
        assert_plan ~context:"Controller.begin_reallocate_live" alloc plan;
        t.migration <-
          Some
            {
              mig_target = alloc;
              mig_plan = plan;
              mig_pending = plan.Planner.moves;
              mig_in_flight = None;
              mig_bandwidth = bandwidth_mb_per_request;
              mig_shipped = 0.;
              mig_done = 0;
              mig_replayed = 0;
            };
        (* A placement already matching the target completes immediately. *)
        if Planner.is_noop plan then
          advance_migration t ~budget:bandwidth_mb_per_request;
        Ok plan

let migration_progress t =
  match t.migration with
  | None -> None
  | Some mig ->
      Some
        {
          tables_total = List.length mig.mig_plan.Planner.moves;
          tables_done = mig.mig_done;
          mb_total = mig.mig_plan.Planner.copy_mb;
          mb_shipped = mig.mig_shipped;
          delta_pending =
            (match mig.mig_in_flight with
            | Some cp -> List.length cp.cp_deltas
            | None -> 0);
          replayed_statements = mig.mig_replayed;
        }

let is_migrating t = t.migration <> None

let drive_migration t () =
  match t.migration with
  | None -> ()
  | Some mig ->
      (* Run the rebalance to completion. *)
      advance_migration t ~budget:(mig.mig_plan.Planner.copy_mb +. 1.)

let reallocate_live t () =
  match begin_reallocate_live t () with
  | Error e -> Error e
  | Ok plan ->
      while t.migration <> None do
        drive_migration t ()
      done;
      Ok plan.Planner.copy_mb
