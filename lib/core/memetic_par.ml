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

let better (sa, za) (sb, zb) =
  sa < sb -. Eps.assign
  || (abs_float (sa -. sb) <= Eps.assign && za < zb -. Eps.assign)

let compare_cost a b =
  let ca = Dense.cost a and cb = Dense.cost b in
  if better ca cb then -1 else if better cb ca then 1 else 0

type island = { mutable members : Dense.t array; rng : Rng.t }

let take k arr = Array.sub arr 0 (min k (Array.length arr))

(* One (λ+µ) generation, the dense counterpart of [Memetic.improve]'s loop
   body: offspring by mutation of random parents, then keep the best 2/3
   of the old population and the best 1/3 of the offspring.  The O(n²)
   local-search strategies of the list path are deliberately absent — at
   dense scale the mutation volume replaces them. *)
let generation p isl =
  let parents = isl.members in
  let n_off =
    max (max 3 p.population) (p.mutations_per_parent * Array.length parents)
  in
  let offspring =
    Array.init n_off (fun _ ->
        Dense.mutate isl.rng parents.(Rng.int isl.rng (Array.length parents)))
  in
  let pop = max 3 p.population in
  let n_old = max 1 (2 * pop / 3) in
  let n_new = max 1 (pop - n_old) in
  let old_sorted = Array.copy parents in
  Array.stable_sort compare_cost old_sorted;
  Array.stable_sort compare_cost offspring;
  isl.members <- Array.append (take n_old old_sorted) (take n_new offspring)

let best_of members =
  let best = ref members.(0) in
  Array.iter (fun m -> if compare_cost m !best < 0 then best := m) members;
  !best

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
             generation p isl
           done)
         islands);
    (* Ring migration: island i's elite replaces the worst member of
       island (i+1) mod islands.  Elites are snapshotted first so the
       exchange is simultaneous and order-independent. *)
    if p.islands > 1 then begin
      let elites = Array.map (fun isl -> best_of isl.members) islands in
      Array.iteri
        (fun i isl ->
          let incoming = Dense.copy elites.((i - 1 + p.islands) mod p.islands) in
          let members = Array.copy isl.members in
          Array.stable_sort compare_cost members;
          if Array.length members > 0 then
            members.(Array.length members - 1) <- incoming;
          isl.members <- members)
        islands
    end
  done;
  let best =
    best_of (Array.append [| t |] (Array.map (fun isl -> best_of isl.members) islands))
  in
  Dense.copy best
