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

let cost alloc = (Allocation.scale alloc, Allocation.total_stored alloc)

let better (sa, za) (sb, zb) =
  sa < sb -. Eps.assign || (abs_float (sa -. sb) <= Eps.assign && za < zb -. Eps.assign)

let compare_cost a b =
  let ca = cost a and cb = cost b in
  if better ca cb then -1 else if better cb ca then 1 else 0

(* ------------------------------------------------------------------ *)
(* Moves                                                               *)
(* ------------------------------------------------------------------ *)

(* Move [amount] of read class [k]'s assignment from [b1] to [b2]; installs
   the class's data (and update closure) on [b2] and prunes so dropped
   classes release their fragments.  Classes are addressed by position in
   [Allocation.classes]. *)
let transfer alloc k ~b1 ~b2 ~amount =
  let a1 = Allocation.assign_at alloc b1 k in
  let amount = min amount a1 in
  if amount > 0. && b1 <> b2 then begin
    Allocation.set_assign_at alloc b1 k (a1 -. amount);
    Allocation.add_class_at alloc b2 k;
    Allocation.set_assign_at alloc b2 k
      (Allocation.assign_at alloc b2 k +. amount);
    Allocation.prune alloc
  end

let on alloc b k = Allocation.assign_at alloc b k > Eps.tiny

(* Update class positions. *)
let updates alloc =
  let nr = Allocation.num_reads alloc in
  List.init (Array.length (Allocation.classes alloc) - nr) (fun j -> nr + j)

(* ------------------------------------------------------------------ *)
(* Local search                                                        *)
(* ------------------------------------------------------------------ *)

(* Strategy 1 (Eqs. 21-22): two read classes both split across a backend
   pair, with different update sets — consolidating each class on one side
   can drop a replicated update class. *)
let consolidate_pairs alloc =
  let nr = Allocation.num_reads alloc in
  let n = Allocation.num_backends alloc in
  (* updates(C) (Eq. 12) of each read, as update positions. *)
  let update_set =
    let us = updates alloc in
    Array.init nr (fun c -> List.filter (Allocation.classes_overlap alloc c) us)
  in
  let improved = ref false in
  for b1 = 0 to n - 1 do
    for b2 = b1 + 1 to n - 1 do
      for c1 = 0 to nr - 1 do
        for c2 = c1 + 1 to nr - 1 do
          if
            on alloc b1 c1 && on alloc b2 c1 && on alloc b1 c2 && on alloc b2 c2
            && not (List.equal Int.equal update_set.(c1) update_set.(c2))
          then begin
            let trial = Allocation.copy alloc in
            transfer trial c1 ~b1:b2 ~b2:b1 ~amount:infinity;
            transfer trial c2 ~b1 ~b2 ~amount:infinity;
            if better (cost trial) (cost alloc) then begin
              Allocation.blit ~src:trial ~dst:alloc;
              improved := true
            end
          end
        done
      done
    done
  done;
  !improved

(* Strategy 2 (Eqs. 23-26): reduce the replication of a heavy update class
   by shifting the read classes that force it off one of its backends,
   accepting extra replication of lighter update classes. *)
let shift_heavy_updates alloc =
  let classes = Allocation.classes alloc in
  let nr = Allocation.num_reads alloc in
  let n = Allocation.num_backends alloc in
  let us = updates alloc in
  let weight k = classes.(k).Query_class.weight in
  (* overlap.(u - nr).(c): read [c] references update [u]'s data. *)
  let overlap =
    Array.of_list
      (List.map
         (fun u ->
           Array.init nr (fun c -> Allocation.classes_overlap alloc c u))
         us)
  in
  let improved = ref false in
  List.iter
    (fun u1 ->
      for b1 = 0 to n - 1 do
        for b2 = 0 to n - 1 do
          if b1 <> b2 && on alloc b1 u1 && on alloc b2 u1 then begin
            let lighter_exists =
              List.exists
                (fun u2 -> u2 <> u1 && on alloc b1 u2 && weight u2 < weight u1)
                us
            in
            if lighter_exists then begin
              let trial = Allocation.copy alloc in
              for c = 0 to nr - 1 do
                if overlap.(u1 - nr).(c) && on trial b1 c then
                  transfer trial c ~b1 ~b2 ~amount:infinity
              done;
              if better (cost trial) (cost alloc) then begin
                Allocation.blit ~src:trial ~dst:alloc;
                improved := true
              end
            end
          end
        done
      done)
    us;
  !improved

let local_search alloc =
  let a = consolidate_pairs alloc in
  let b = shift_heavy_updates alloc in
  a || b

(* ------------------------------------------------------------------ *)
(* Mutation                                                            *)
(* ------------------------------------------------------------------ *)

let mutate rng alloc =
  let child = Allocation.copy alloc in
  let nr = Allocation.num_reads child in
  let n = Allocation.num_backends child in
  if nr = 0 || n < 2 then child
  else begin
    let attempts = 1 + Rng.int rng 3 in
    for _ = 1 to attempts do
      let c = Rng.int rng nr in
      (* Source: a backend currently serving c (if any). *)
      let sources = List.filter (fun b -> on child b c) (List.init n Fun.id) in
      match sources with
      | [] -> ()
      | _ ->
          let b1 = Rng.pick_list rng sources in
          let b2 = Rng.int rng n in
          if b1 <> b2 then begin
            let a1 = Allocation.assign_at child b1 c in
            let amount = if Rng.bool rng then a1 else Rng.float rng a1 in
            transfer child c ~b1 ~b2 ~amount
          end
    done;
    child
  end

(* ------------------------------------------------------------------ *)
(* Evolutionary loop (Algorithm 2)                                     *)
(* ------------------------------------------------------------------ *)

let take k l =
  let rec go k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: go (k - 1) rest
  in
  go k l

let improve ?(params = default_params) ~rng alloc =
  let p = max 3 params.population in
  let population = ref [ Allocation.copy alloc ] in
  for _ = 1 to params.iterations do
    (* Offspring: mutations of random parents. *)
    let parents = Array.of_list !population in
    let offspring =
      List.init
        (max p (params.mutations_per_parent * Array.length parents))
        (fun _ -> mutate rng (Rng.pick rng parents))
    in
    (* (λ+µ) selection: best 2/3 old, best 1/3 offspring. *)
    let n_old = max 1 (2 * p / 3) in
    let n_new = max 1 (p - n_old) in
    let best l = List.sort compare_cost l in
    let survivors =
      take n_old (best !population) @ take n_new (best offspring)
    in
    (* Memetic step: improve a random third of the new population. *)
    let survivors = Array.of_list survivors in
    let improve_one alloc =
      match params.local_search_mode with
      | No_local_search -> ()
      | Consolidate_only -> ignore (consolidate_pairs alloc)
      | Both_strategies -> ignore (local_search alloc)
    in
    let k = max 1 (Array.length survivors / 3) in
    for _ = 1 to k do
      let i = Rng.int rng (Array.length survivors) in
      improve_one survivors.(i)
    done;
    population := Array.to_list survivors
  done;
  let all = alloc :: !population in
  let best = List.hd (List.sort compare_cost all) in
  Invariants.check_allocation ~context:"Memetic.improve" best;
  best

let allocate ?params ~rng workload backend_list =
  let seed = Greedy.allocate workload backend_list in
  improve ?params ~rng seed
