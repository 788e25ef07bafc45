module Allocation = Cdbs_core.Allocation
module Query_class = Cdbs_core.Query_class
module Fragment = Cdbs_core.Fragment
module Workload = Cdbs_core.Workload

type t = {
  alloc : Allocation.t;
  class_by_id : (string, Query_class.t) Hashtbl.t;
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

let class_table alloc =
  let class_by_id = Hashtbl.create 32 in
  Array.iter
    (fun c -> Hashtbl.replace class_by_id c.Query_class.id c)
    (Allocation.classes alloc);
  class_by_id

let create alloc =
  let n = Allocation.num_backends alloc in
  {
    alloc;
    class_by_id = class_table alloc;
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
    class_by_id = class_table alloc;
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

(* The schema records which backends a class was assigned to; the scheduler
   routes among those.  Backends that merely happen to hold the data (e.g.
   k-safety standby replicas) are used only when no assigned backend
   exists.  In dynamic mode the placement is mid-migration, so routing
   relies on the live fragment sets alone. *)
let eligible_for_read ?healthy t c =
  let all = List.init (num_nodes t) (fun b -> b) in
  let base =
    if t.dynamic then
      List.filter (fun b -> read_capable t b && serves t b c) all
    else
      let assigned =
        List.filter
          (fun b -> read_capable t b && Allocation.get_assign t.alloc b c > 0.)
          all
      in
      if assigned <> [] then assigned
      else
        List.filter
          (fun b -> read_capable t b && Allocation.holds t.alloc b c)
          all
  in
  match healthy with
  | None -> base
  | Some ok -> (
      (* Fail open: when every replica's breaker is open, serving from a
         suspect backend beats refusing the read outright. *)
      match List.filter ok base with [] -> base | filtered -> filtered)

let find_class t id = Hashtbl.find_opt t.class_by_id id

let targets_for_update t (c : Query_class.t) =
  List.filter
    (fun b ->
      t.up.(b)
      && not (Fragment.Set.disjoint c.Query_class.fragments t.live.(b)))
    (List.init (num_nodes t) (fun b -> b))

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

(* Allocation-free equivalent of [eligible_for_read] + least-pending fold:
   one pass decides which base set applies (assigned vs holders) and
   whether the health filter leaves anyone (fail open if not), a second
   pass takes the first minimum-pending candidate.  [exclude] drops one
   backend from the final selection only — the base-set and fail-open
   decisions still see it, mirroring how the hedge path filtered the
   candidate list after [eligible_for_read]. *)
let best_read_target ?healthy ?(exclude = -1) t ~now (c : Query_class.t) =
  let n = num_nodes t in
  let in_base =
    if t.dynamic then fun b -> read_capable t b && serves t b c
    else begin
      let any_assigned = ref false in
      for b = 0 to n - 1 do
        if
          (not !any_assigned)
          && read_capable t b
          && Allocation.get_assign t.alloc b c > 0.
        then any_assigned := true
      done;
      if !any_assigned then fun b ->
        read_capable t b && Allocation.get_assign t.alloc b c > 0.
      else fun b -> read_capable t b && Allocation.holds t.alloc b c
    end
  in
  let candidate =
    match healthy with
    | None -> in_base
    | Some ok ->
        let any_healthy = ref false in
        for b = 0 to n - 1 do
          if (not !any_healthy) && in_base b && ok b then any_healthy := true
        done;
        (* Fail open: when every replica's breaker is open, serving from a
           suspect backend beats refusing the read outright. *)
        if !any_healthy then fun b -> in_base b && ok b else in_base
  in
  let best = ref (-1) and best_pending = ref infinity in
  for b = 0 to n - 1 do
    if b <> exclude && candidate b then begin
      let p = pending t ~backend:b ~now in
      if !best < 0 || p < !best_pending then begin
        best := b;
        best_pending := p
      end
    end
  done;
  if !best < 0 then None else Some !best

let route ?healthy t ~now (r : Request.t) =
  match Hashtbl.find_opt t.class_by_id r.Request.class_id with
  | None -> Error ("unknown query class " ^ r.Request.class_id)
  | Some c ->
      if r.Request.is_update then begin
        match targets_for_update t c with
        | [] -> Error ("update class " ^ c.Query_class.id ^ " has no replica")
        | targets -> Ok targets
      end
      else begin
        match eligible_for_read ?healthy t c with
        | [] -> Error ("read class " ^ c.Query_class.id ^ " is not served")
        | candidates ->
            (* Least pending request first. *)
            let best =
              List.fold_left
                (fun acc b ->
                  match acc with
                  | None -> Some b
                  | Some cur ->
                      if
                        pending t ~backend:b ~now
                        < pending t ~backend:cur ~now
                      then Some b
                      else acc)
                None candidates
            in
            Ok [ Option.get best ]
      end
