module Rng = Cdbs_util.Rng

type local_search_mode =
  | No_local_search
  | Consolidate_only
  | Both_strategies

type params = {
  population : int;
  iterations : int;
  mutations_per_parent : int;
  local_search_mode : local_search_mode;
}

let default_params =
  {
    population = 12;
    iterations = 60;
    mutations_per_parent = 2;
    local_search_mode = Both_strategies;
  }

let better (sa, za) (sb, zb) =
  sa < sb -. Eps.assign
  || (abs_float (sa -. sb) <= Eps.assign && za < zb -. Eps.assign)

let compare_cost a b =
  let ca = Dense.cost a and cb = Dense.cost b in
  if better ca cb then -1 else if better cb ca then 1 else 0

(* ------------------------------------------------------------------ *)
(* The (λ+µ) step                                                      *)
(* ------------------------------------------------------------------ *)

let take k arr = Array.sub arr 0 (min k (Array.length arr))

let generation ~population ~mutations_per_parent rng parents =
  let pop = max 3 population in
  let offspring =
    Array.init
      (max pop (mutations_per_parent * Array.length parents))
      (fun _ -> Dense.mutate rng (Rng.pick rng parents))
  in
  let n_old = max 1 (2 * pop / 3) in
  let n_new = max 1 (pop - n_old) in
  let old_sorted = Array.copy parents in
  Array.stable_sort compare_cost old_sorted;
  Array.stable_sort compare_cost offspring;
  Array.append (take n_old old_sorted) (take n_new offspring)

let best members =
  Array.fold_left
    (fun b m -> if compare_cost m b < 0 then m else b)
    members.(0) members

(* ------------------------------------------------------------------ *)
(* Local search                                                        *)
(* ------------------------------------------------------------------ *)

(* Whether class [c] still sits on backend [b]. *)
let serves t b c = Dense.share t b c > Eps.tiny

(* Which update classes each read class overlaps: [upd.(i)] is updates(C)
   (Eq. 12) of the [i]-th read class, ascending, and [readers.(u)] the
   read classes overlapping update class [u], ascending. *)
type overlap = { upd : int list array; readers : int list array }

let overlap (inst : Dense.instance) =
  let upd =
    Array.map
      (fun c ->
        let us = ref [] in
        Dense.iter_footprint inst c (fun f ->
            for k = inst.frag_upd_off.(f) to inst.frag_upd_off.(f + 1) - 1 do
              us := inst.frag_upd.(k) :: !us
            done);
        List.sort_uniq Int.compare !us)
      inst.read_idx
  in
  let readers = Array.make inst.n_classes [] in
  for i = Array.length inst.read_idx - 1 downto 0 do
    List.iter
      (fun u -> readers.(u) <- inst.read_idx.(i) :: readers.(u))
      upd.(i)
  done;
  { upd; readers }

(* Strategy 1 (Eqs. 21-22): two read classes both split across a backend
   pair, with different update sets — consolidating each class on one side
   can drop a replicated update class. *)
let consolidate_pairs ov t =
  let reads = t.Dense.inst.Dense.read_idx in
  let nr = Array.length reads and n = Dense.num_backends t in
  let cur = ref t and improved = ref false in
  for b1 = 0 to n - 1 do
    for b2 = b1 + 1 to n - 1 do
      for i1 = 0 to nr - 1 do
        for i2 = i1 + 1 to nr - 1 do
          let c1 = reads.(i1) and c2 = reads.(i2) and s = !cur in
          if
            serves s b1 c1 && serves s b2 c1 && serves s b1 c2
            && serves s b2 c2
            && not (List.equal Int.equal ov.upd.(i1) ov.upd.(i2))
          then begin
            let trial = Dense.copy s in
            Dense.transfer trial c1 ~b1:b2 ~b2:b1 ~amount:infinity;
            Dense.transfer trial c2 ~b1 ~b2 ~amount:infinity;
            if compare_cost trial s < 0 then begin
              cur := trial;
              improved := true
            end
          end
        done
      done
    done
  done;
  (!cur, !improved)

(* Strategy 2 (Eqs. 23-26): reduce the replication of a heavy update class
   by shifting the read classes that force it off one of its backends,
   accepting extra replication of lighter update classes. *)
let shift_heavy_updates ov t =
  let inst = t.Dense.inst in
  let us = inst.Dense.upd_idx and n = Dense.num_backends t in
  let weight u = inst.Dense.class_weight.(u) in
  let cur = ref t and improved = ref false in
  Array.iter
    (fun u1 ->
      for b1 = 0 to n - 1 do
        for b2 = 0 to n - 1 do
          let s = !cur in
          if
            b1 <> b2 && serves s b1 u1 && serves s b2 u1
            && Array.exists
                 (fun u2 ->
                   u2 <> u1 && serves s b1 u2 && weight u2 < weight u1)
                 us
          then begin
            let trial = Dense.copy s in
            List.iter
              (fun c ->
                if serves trial b1 c then
                  Dense.transfer trial c ~b1 ~b2 ~amount:infinity)
              ov.readers.(u1);
            if compare_cost trial s < 0 then begin
              cur := trial;
              improved := true
            end
          end
        done
      done)
    us;
  (!cur, !improved)

let both_strategies ov t =
  let t, a = consolidate_pairs ov t in
  let t, b = shift_heavy_updates ov t in
  (t, a || b)

let search t = both_strategies (overlap t.Dense.inst) t

(* ------------------------------------------------------------------ *)
(* Evolutionary loop (Algorithm 2)                                     *)
(* ------------------------------------------------------------------ *)

let evolve params rng t =
  let ov = overlap t.Dense.inst in
  let improve_one =
    match params.local_search_mode with
    | No_local_search -> Fun.id
    | Consolidate_only -> fun s -> fst (consolidate_pairs ov s)
    | Both_strategies -> fun s -> fst (both_strategies ov s)
  in
  let population = ref [| Dense.copy t |] in
  for _ = 1 to params.iterations do
    let survivors =
      generation ~population:params.population
        ~mutations_per_parent:params.mutations_per_parent rng !population
    in
    (* Memetic step: improve a random third of the new population. *)
    for _ = 1 to max 1 (Array.length survivors / 3) do
      let i = Rng.int rng (Array.length survivors) in
      survivors.(i) <- improve_one survivors.(i)
    done;
    population := survivors
  done;
  best (Array.append [| t |] !population)

(* The view over [t], a state the search built from a copy of [alloc]'s:
   a fresh allocation. *)
let fresh ~context alloc t =
  let result = Allocation.with_state alloc t in
  Invariants.check_allocation ~context result;
  result

let improve ?(params = default_params) ~rng alloc =
  fresh ~context:"Memetic.improve" alloc
    (evolve params rng (Dense.copy (Allocation.state alloc)))

let allocate ?(params = default_params) ~rng workload backend_list =
  Greedy.via_dense ~context:"Memetic.allocate"
    (fun inst -> evolve params rng (Dense.greedy inst))
    workload backend_list

let local_search alloc =
  let t, improved = search (Dense.copy (Allocation.state alloc)) in
  (fresh ~context:"Memetic.local_search" alloc t, improved)
