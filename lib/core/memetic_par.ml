module Rng = Cdbs_util.Rng
module Pool = Cdbs_util.Pool

type params = {
  population : int;  (** individuals per island *)
  generations : int;  (** total generations per island *)
  mutations_per_parent : int;
  islands : int;
  migration_every : int;  (** generations between elite ring migrations *)
}

let default_params =
  {
    population = 8;
    generations = 24;
    mutations_per_parent = 2;
    islands = 4;
    migration_every = 6;
  }

type island = { mutable members : Dense.t array; rng : Rng.t }

let improve ?(params = default_params) ?domains ~seed t =
  let p =
    {
      params with
      islands = max 1 params.islands;
      migration_every = max 1 params.migration_every;
    }
  in
  let master = Rng.create seed in
  (* Per-island RNG streams are split off the master in island order, so
     the full evolution depends only on (seed, islands) — never on how
     many domains the pool actually runs. *)
  let islands =
    Array.init p.islands (fun _ ->
        { members = [| Dense.copy t |]; rng = Rng.split master })
  in
  let epochs =
    (max 1 p.generations + p.migration_every - 1) / p.migration_every
  in
  let gens_left = ref (max 1 p.generations) in
  for _ = 1 to epochs do
    let gens = min p.migration_every !gens_left in
    gens_left := !gens_left - gens;
    (* Islands evolve independently — this is the parallel section. *)
    ignore
      (Pool.map ?domains
         (fun isl ->
           for _ = 1 to gens do
             isl.members <-
               Memetic.generation ~population:p.population
                 ~mutations_per_parent:p.mutations_per_parent isl.rng
                 isl.members
           done)
         islands);
    (* Ring migration: island i's elite replaces the worst member of
       island (i+1) mod islands.  Elites are snapshotted first so the
       exchange is simultaneous and order-independent. *)
    if p.islands > 1 then begin
      let elites = Array.map (fun isl -> Memetic.best isl.members) islands in
      Array.iteri
        (fun i isl ->
          let incoming = Dense.copy elites.((i - 1 + p.islands) mod p.islands) in
          let members = Array.copy isl.members in
          Array.stable_sort Memetic.compare_cost members;
          if Array.length members > 0 then
            members.(Array.length members - 1) <- incoming;
          isl.members <- members)
        islands
    end
  done;
  let elites = Array.map (fun isl -> Memetic.best isl.members) islands in
  Dense.copy (Memetic.best (Array.append [| t |] elites))
