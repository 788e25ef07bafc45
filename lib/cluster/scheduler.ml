module Allocation = Cdbs_core.Allocation
module Dense = Cdbs_core.Dense
module Query_class = Cdbs_core.Query_class
module Fragment = Cdbs_core.Fragment
module Workload = Cdbs_core.Workload

type t = {
  alloc : Allocation.t;
  state : Dense.t;  (* the allocation's: its bitsets answer by position *)
  assigned : bool array array;
      (* static mode: per class position, the backends where the class has
         a positive share, read once from the allocation *)
  free_at : float array;
  up : bool array;
  stale : bool array;
      (* up but catching up after a rejoin: takes updates (so the missed
         volume stops growing) yet serves no reads until caught up *)
  live : Fragment.Set.t array;
      (* fragments each physical node currently serves; in static mode this
         mirrors the allocation's placement *)
  dynamic : bool;
      (* dynamic mode routes purely by live fragment sets (the placement is
         in motion and assignment weights refer to the target) *)
}

let create alloc =
  let n = Allocation.num_backends alloc in
  let state = Allocation.state alloc in
  let assigned =
    Array.mapi
      (fun k _ ->
        let a = Array.make n false in
        Dense.iter_shares state k (fun b w -> if w > 0. then a.(b) <- true);
        a)
      (Allocation.classes alloc)
  in
  {
    alloc;
    state;
    assigned;
    free_at = Array.make n 0.;
    up = Array.make n true;
    stale = Array.make n false;
    live = Array.init n (Allocation.fragments_of alloc);
    dynamic = false;
  }

let create_dynamic alloc ~live =
  let n = Array.length live in
  if n = 0 then invalid_arg "Scheduler.create_dynamic: no nodes";
  {
    alloc;
    state = Allocation.state alloc;
    assigned = [||];
    free_at = Array.make n 0.;
    up = Array.make n true;
    stale = Array.make n false;
    live = Array.map (fun s -> s) live;
    dynamic = true;
  }

let num_nodes t = Array.length t.live
let live_fragments t ~backend = t.live.(backend)

let add_live t ~backend fragments =
  t.live.(backend) <- Fragment.Set.union t.live.(backend) fragments

let remove_live t ~backend fragments =
  t.live.(backend) <- Fragment.Set.diff t.live.(backend) fragments

let class_position t id = Allocation.position t.alloc id
let class_at t k = (Allocation.classes t.alloc).(k)

let serves t b (c : Query_class.t) =
  Fragment.Set.subset c.Query_class.fragments t.live.(b)

(* A backend serves reads only when it is up AND caught up; a stale backend
   still applies updates so its catch-up backlog stops growing. *)
let read_capable t b = t.up.(b) && not t.stale.(b)

let live_replicas t c =
  let n = ref 0 in
  for b = 0 to num_nodes t - 1 do
    if read_capable t b && serves t b c then incr n
  done;
  !n

(* The one read-eligibility rule.  The schema records which backends a
   class was assigned to; the scheduler routes among those.  Backends that
   merely hold the data (e.g. k-safety standby replicas) are used only when
   no assigned backend can serve.  In dynamic mode the placement is
   mid-migration, so routing relies on the live fragment sets alone; in
   static mode the live sets mirror the placement, so the shares taken
   in [create] and the allocation's state answer by position.  A [healthy]
   filter (e.g. a breaker's [allows]) steers around suspect candidates but
   fails open: when it rejects every one, serving from a suspect backend
   beats refusing the read outright.  The filter is called on the base
   members in backend order up to the first it accepts, then again on each
   candidate the caller tests. *)
let read_candidate ?healthy t k =
  let n = num_nodes t in
  let in_base =
    if t.dynamic then
      let c = class_at t k in
      fun b -> read_capable t b && serves t b c
    else
      let on = t.assigned.(k) in
      let assigned b = read_capable t b && on.(b) in
      let rec any_assigned b = b < n && (assigned b || any_assigned (b + 1)) in
      if any_assigned 0 then assigned
      else fun b -> read_capable t b && Dense.holds t.state b k
  in
  match healthy with
  | None -> in_base
  | Some ok ->
      let rec any_healthy b =
        b < n && ((in_base b && ok b) || any_healthy (b + 1))
      in
      if any_healthy 0 then fun b -> in_base b && ok b else in_base

(* Updates reach every up node holding any of the class's data: the live
   sets in dynamic mode, the allocation's bitsets (which they mirror) in
   static mode. *)
let targets_for_update_at t k =
  let overlaps =
    if t.dynamic then
      let c = class_at t k in
      fun b -> not (Fragment.Set.disjoint c.Query_class.fragments t.live.(b))
    else fun b -> Dense.overlaps t.state b k
  in
  let rec from b =
    if b = num_nodes t then []
    else if t.up.(b) && overlaps b then b :: from (b + 1)
    else from (b + 1)
  in
  from 0

let set_down t ~backend =
  t.up.(backend) <- false;
  t.stale.(backend) <- false

let set_up ?(stale = false) t ~backend =
  t.up.(backend) <- true;
  t.stale.(backend) <- stale

let set_stale t ~backend ~stale =
  if not t.up.(backend) then
    invalid_arg "Scheduler.set_stale: backend is down";
  t.stale.(backend) <- stale

let is_up t ~backend = t.up.(backend)
let is_stale t ~backend = t.stale.(backend)
let pending t ~backend ~now = max 0. (t.free_at.(backend) -. now)
let free_at t ~backend = t.free_at.(backend)
let book t ~backend ~finish = t.free_at.(backend) <- finish

(* Least pending work first; the first minimum wins ties.  [exclude] drops
   one backend from this selection only: the base-set and fail-open
   decisions still see it, so a hedge's second leg is picked as the list
   of candidates minus its primary. *)
let best_read_target ?healthy ?(exclude = -1) t ~now k =
  let candidate = read_candidate ?healthy t k in
  let best = ref (-1) and best_pending = ref infinity in
  for b = 0 to num_nodes t - 1 do
    if b <> exclude && candidate b then begin
      let p = pending t ~backend:b ~now in
      if !best < 0 || p < !best_pending then begin
        best := b;
        best_pending := p
      end
    end
  done;
  if !best < 0 then None else Some !best
