(* Massive-instance allocator benchmark: dense greedy at 10^5-10^6
   fragments, the island-parallel memetic, and O(delta) incremental
   repair vs. re-solving from scratch.  Seed-deterministic apart from
   the timing fields, so BENCH_alloc.json diffs cleanly run to run. *)

module Core = Cdbs_core
module Rng = Cdbs_util.Rng
module Dense = Core.Dense
module Incremental = Core.Incremental
module Memetic_par = Core.Memetic_par
module Check = Cdbs_analysis.Check_allocation
module Diag = Cdbs_analysis.Diagnostic

type strategy = Greedy | Memetic

type params = {
  fragments : int;
  reads : int;
  updates : int;
  backends : int;
  seed : int;
  strategy : strategy;
  population : int;
  generations : int;
  islands : int;
  migration_every : int;
  domains : int option;  (** [None] = all available *)
  repair : bool;
  delta_frac : float;
  budget : int option;
}

let default =
  {
    fragments = 1_000_000;
    reads = 120_000;
    updates = 30_000;
    backends = 100;
    seed = 42;
    strategy = Greedy;
    population = 6;
    generations = 8;
    islands = 4;
    migration_every = 3;
    domains = None;
    repair = true;
    delta_frac = 0.01;
    budget = None;
  }

(* CI preset: big enough that a quadratic regression in the dense core
   blows the wall-clock gate, small enough for a 1-core runner. *)
let smoke =
  {
    default with
    fragments = 100_000;
    reads = 25_000;
    updates = 6_000;
    backends = 50;
  }

type memetic_result = {
  memetic_s : float;
  memetic_scale : float;
  memetic_stored : float;
  domains_used : int;
  memetic_errors : int;
}

type repair_result = {
  deltas : int;
  repair_s : float;
  resolve_s : float;
  repair_speedup : float;
  moved_fragments : int;
  moved_frac : float;
  rebalance_fragments : int;
  repair_errors : int;
}

type result = {
  p : params;
  greedy_s : float;
  greedy_scale : float;
  greedy_stored : float;
  check_errors : int;
  memetic : memetic_result option;
  repair : repair_result option;
}

let now = Unix.gettimeofday

let run ?(params = default) () =
  let p = params in
  let rng = Rng.create p.seed in
  let inst =
    Dense.synthetic ~rng ~fragments:p.fragments ~reads:p.reads
      ~updates:p.updates ~backends:p.backends ()
  in
  let t0 = now () in
  let g = Dense.greedy inst in
  let greedy_s = now () -. t0 in
  (* Snapshot the greedy cost up front: the repair below consumes [g]. *)
  let greedy_scale = Dense.scale g in
  let greedy_stored = Dense.total_stored g in
  let check_errors = List.length (Diag.errors (Check.check_dense g)) in
  let memetic =
    match p.strategy with
    | Greedy -> None
    | Memetic ->
        let mp =
          {
            Memetic_par.population = p.population;
            generations = p.generations;
            mutations_per_parent =
              Memetic_par.default_params.Memetic_par.mutations_per_parent;
            islands = p.islands;
            migration_every = p.migration_every;
          }
        in
        let domains_used =
          match p.domains with
          | Some d -> max 1 d
          | None -> Cdbs_util.Pool.available ()
        in
        let t0 = now () in
        let m =
          Memetic_par.improve ~params:mp ~domains:domains_used ~seed:p.seed
            (Dense.copy g)
        in
        let memetic_s = now () -. t0 in
        Some
          {
            memetic_s;
            memetic_scale = Dense.scale m;
            memetic_stored = Dense.total_stored m;
            domains_used;
            memetic_errors = List.length (Diag.errors (Check.check_dense m));
          }
  in
  let repair =
    if not p.repair then None
    else begin
      let deltas = Incremental.random_delta ~rng ~frac:p.delta_frac g in
      let t0 = now () in
      let st, stats = Incremental.repair ?budget:p.budget g deltas in
      let repair_s = now () -. t0 in
      let t0 = now () in
      let resolved = Dense.greedy st.Dense.inst in
      let resolve_s = now () -. t0 in
      ignore (Dense.scale resolved);
      let repair_diags = Diag.errors (Check.check_dense st) in
      let repair_errors = List.length repair_diags in
      if repair_errors > 0 then
        List.iteri
          (fun i d -> if i < 5 then Fmt.epr "repair: %a@." Diag.pp d)
          repair_diags;
      Some
        {
          deltas = List.length deltas;
          repair_s;
          resolve_s;
          repair_speedup = (if repair_s > 0. then resolve_s /. repair_s else 0.);
          moved_fragments = stats.Incremental.moved_fragments;
          moved_frac =
            float_of_int stats.Incremental.moved_fragments
            /. float_of_int (max 1 inst.Dense.n_frags);
          rebalance_fragments = stats.Incremental.rebalance_fragments;
          repair_errors;
        }
    end
  in
  { p; greedy_s; greedy_scale; greedy_stored; check_errors; memetic; repair }

let to_json r =
  let b = Buffer.create 512 in
  Printf.bprintf b
    "{\"name\":\"fig_alloc\",\"seed\":%d,\"fragments\":%d,\"reads\":%d,\
     \"updates\":%d,\"backends\":%d,\"greedy_s\":%.3f,\"greedy_scale\":%.4f,\
     \"greedy_stored_mb\":%.1f,\"check_errors\":%d"
    r.p.seed r.p.fragments r.p.reads r.p.updates r.p.backends r.greedy_s
    r.greedy_scale r.greedy_stored r.check_errors;
  (match r.memetic with
  | None -> ()
  | Some m ->
      Printf.bprintf b
        ",\"memetic\":{\"wall_s\":%.3f,\"scale\":%.4f,\"stored_mb\":%.1f,\
         \"islands\":%d,\"generations\":%d,\"domains\":%d,\"errors\":%d}"
        m.memetic_s m.memetic_scale m.memetic_stored r.p.islands
        r.p.generations m.domains_used m.memetic_errors);
  (match r.repair with
  | None -> ()
  | Some rp ->
      Printf.bprintf b
        ",\"repair\":{\"deltas\":%d,\"repair_s\":%.4f,\"resolve_s\":%.3f,\
         \"speedup\":%.1f,\"moved_fragments\":%d,\"moved_frac\":%.5f,\
         \"rebalance_fragments\":%d,\"errors\":%d}"
        rp.deltas rp.repair_s rp.resolve_s rp.repair_speedup
        rp.moved_fragments rp.moved_frac rp.rebalance_fragments
        rp.repair_errors);
  Buffer.add_char b '}';
  Buffer.contents b

let pp_result ppf r =
  Fmt.pf ppf
    "greedy: %d frags x %d classes on %d backends in %.2f s (scale %.3f, \
     %.0f MB stored, %d checker errors)@."
    r.p.fragments (r.p.reads + r.p.updates) r.p.backends r.greedy_s
    r.greedy_scale r.greedy_stored r.check_errors;
  (match r.memetic with
  | None -> ()
  | Some m ->
      Fmt.pf ppf
        "memetic: %d islands x %d generations on %d domain%s in %.2f s \
         (scale %.3f, %.0f MB stored, %d checker errors)@."
        r.p.islands r.p.generations m.domains_used
        (if m.domains_used = 1 then "" else "s")
        m.memetic_s m.memetic_scale m.memetic_stored m.memetic_errors);
  match r.repair with
  | None -> ()
  | Some rp ->
      Fmt.pf ppf
        "repair: %d deltas in %.4f s vs %.2f s re-solve (%.0fx); moved \
         %d/%d fragments (%.2f%%), %d rebalance copies, %d errors@."
        rp.deltas rp.repair_s rp.resolve_s rp.repair_speedup
        rp.moved_fragments r.p.fragments (100. *. rp.moved_frac)
        rp.rebalance_fragments rp.repair_errors

let print_all () =
  Common.header
    "Massive-instance allocator: dense greedy, island memetic, incremental \
     repair";
  let r = run ~params:{ smoke with strategy = Memetic } () in
  Fmt.pr "%a" pp_result r
