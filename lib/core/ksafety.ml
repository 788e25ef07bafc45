(* Number of backends holding all of the class's fragments. *)
let class_replica_count alloc c =
  let count = ref 0 in
  for b = 0 to Allocation.num_backends alloc - 1 do
    if Allocation.holds alloc b c then incr count
  done;
  !count

let surviving_replica_count alloc ~failed c =
  let count = ref 0 in
  for b = 0 to Allocation.num_backends alloc - 1 do
    if (not (List.mem b failed)) && Allocation.holds alloc b c then incr count
  done;
  !count

let effective_k ?(failed = []) alloc =
  let survivors =
    let n = Allocation.num_backends alloc in
    let s = ref 0 in
    for b = 0 to n - 1 do
      if not (List.mem b failed) then incr s
    done;
    !s
  in
  List.fold_left
    (fun acc c -> min acc (surviving_replica_count alloc ~failed c - 1))
    (survivors - 1)
    (Workload.all_classes (Allocation.workload alloc))

let is_k_safe ~k alloc =
  List.for_all
    (fun c -> class_replica_count alloc c >= k + 1)
    (Workload.all_classes (Allocation.workload alloc))

let survives alloc ~failed =
  let n = Allocation.num_backends alloc in
  List.for_all
    (fun c ->
      let rec any b =
        b < n
        && ((not (List.mem b failed)) && Allocation.holds alloc b c
           || any (b + 1))
      in
      any 0)
    (Workload.all_classes (Allocation.workload alloc))

(* Closure fragments a class drags along (its updates' data). *)
let closure_fragments workload c =
  List.fold_left
    (fun acc u -> Fragment.Set.union acc u.Query_class.fragments)
    c.Query_class.fragments
    (Workload.updates_of workload c)

let class_holders ?(failed = []) alloc c =
  let acc = ref [] in
  for b = Allocation.num_backends alloc - 1 downto 0 do
    if (not (List.mem b failed)) && Allocation.holds alloc b c then
      acc := b :: !acc
  done;
  !acc

let class_zone_spread ?failed ~topology alloc c =
  Topology.zones_spanned topology (class_holders ?failed alloc c)

(* The spread a placement can actually achieve: [min (k+1)] and the number
   of zones that still have a surviving backend (a dead zone cannot host a
   replica). *)
let attainable_spread ?(failed = []) ~topology ~k alloc =
  let n = Allocation.num_backends alloc in
  let survivors =
    List.filter (fun b -> not (List.mem b failed)) (List.init n Fun.id)
  in
  min (k + 1) (Topology.zones_spanned topology survivors)

let spread_ok ?(failed = []) ~topology ~k alloc =
  let required = attainable_spread ~failed ~topology ~k alloc in
  List.for_all
    (fun c -> class_zone_spread ~failed ~topology alloc c >= required)
    (Workload.all_classes (Allocation.workload alloc))

(* Place one additional replica of [c] on the backend that does not yet hold
   it and needs the least new data; ties broken by lowest relative load
   (Algorithm 4 sets the difference to infinity for backends already
   holding a replica).  Backends in [avoid] (failed nodes, during repair)
   are never chosen.  With a topology, backends in zones that do not yet
   hold a (non-avoided) replica of [c] are preferred outright — the spread
   constraint dominates the data-movement key. *)
let place_replica_avoiding ?topology alloc ~avoid c =
  let workload = Allocation.workload alloc in
  let n = Allocation.num_backends alloc in
  let backends = Allocation.backends alloc in
  let zone_covered =
    match topology with
    | None -> fun _ -> 0.
    | Some t ->
        let covered = Array.make (Topology.zones t) false in
        List.iter
          (fun b -> covered.(Topology.zone_of t b) <- true)
          (class_holders ~failed:avoid alloc c);
        fun b -> if covered.(Topology.zone_of t b) then 1. else 0.
  in
  let best = ref (-1) and best_key = ref (infinity, infinity, infinity) in
  for b = 0 to n - 1 do
    if (not (List.mem b avoid)) && not (Allocation.holds alloc b c) then begin
      let extra =
        Fragment.set_size
          (Fragment.Set.diff
             (closure_fragments workload c)
             (Allocation.fragments_of alloc b))
      in
      let utilization =
        Allocation.assigned_load alloc b /. backends.(b).Backend.load
      in
      if (zone_covered b, extra, utilization) < !best_key then begin
        best := b;
        best_key := (zone_covered b, extra, utilization)
      end
    end
  done;
  match !best with
  | -1 -> false
  | b ->
      Allocation.add_fragments alloc b (closure_fragments workload c);
      Allocation.ensure_update_closure alloc;
      true

(* Heaviest first: their replicas bring the most data and constrain
   placement the most (same rationale as the base greedy order). *)
let classes_by_weight workload =
  List.sort
    (fun a b -> Stdlib.compare b.Query_class.weight a.Query_class.weight)
    (Workload.all_classes workload)

(* Add replicas until every class spans its attainable zone count.  A
   replica count of k+1 alone does not imply spread — greedy locality may
   stack all copies in one zone — so this pass places extra replicas
   restricted to backends in zones the class does not cover yet.  Each
   successful placement covers a new zone, so it terminates. *)
let spread_fill ?(failed = []) ~topology ~k alloc classes =
  let n = Allocation.num_backends alloc in
  let required = attainable_spread ~failed ~topology ~k alloc in
  List.iter
    (fun c ->
      let rec go () =
        let holders = class_holders ~failed alloc c in
        if Topology.zones_spanned topology holders < required then begin
          let covered = Array.make (Topology.zones topology) false in
          List.iter
            (fun b -> covered.(Topology.zone_of topology b) <- true)
            holders;
          let avoid =
            failed
            @ List.filter
                (fun b -> covered.(Topology.zone_of topology b))
                (List.init n Fun.id)
          in
          if place_replica_avoiding ~topology alloc ~avoid c then go ()
        end
      in
      go ())
    classes

let replicate_all_classes ?topology ~k alloc =
  let classes = classes_by_weight (Allocation.workload alloc) in
  List.iter
    (fun c ->
      let missing = (k + 1) - class_replica_count alloc c in
      for _ = 1 to missing do
        ignore (place_replica_avoiding ?topology alloc ~avoid:[] c)
      done)
    classes;
  match topology with
  | Some t -> spread_fill ~topology:t ~k alloc classes
  | None -> ()

let allocate ?topology ~k workload backend_list =
  if k < 0 then invalid_arg "Ksafety.allocate: negative k";
  if k + 1 > List.length backend_list then
    invalid_arg "Ksafety.allocate: k+1 exceeds the number of backends";
  (match topology with
  | Some t when Topology.num_backends t <> List.length backend_list ->
      invalid_arg "Ksafety.allocate: topology backend count <> backends"
  | _ -> ());
  let alloc = Greedy.allocate workload backend_list in
  replicate_all_classes ?topology ~k alloc;
  alloc

let repair ?topology ~k ~failed alloc =
  if k < 0 then invalid_arg "Ksafety.repair: negative k";
  let n = Allocation.num_backends alloc in
  (match topology with
  | Some t when Topology.num_backends t <> n ->
      invalid_arg "Ksafety.repair: topology backend count <> backends"
  | _ -> ());
  let failed = List.sort_uniq Int.compare failed in
  let survivors = n - List.length (List.filter (fun b -> b < n) failed) in
  if k + 1 > survivors then
    invalid_arg "Ksafety.repair: k+1 exceeds the surviving backends";
  let before = Array.init n (Allocation.fragments_of alloc) in
  let classes = classes_by_weight (Allocation.workload alloc) in
  List.iter
    (fun c ->
      let missing = (k + 1) - surviving_replica_count alloc ~failed c in
      for _ = 1 to missing do
        ignore (place_replica_avoiding ?topology alloc ~avoid:failed c)
      done)
    classes;
  (match topology with
  | Some t -> spread_fill ~failed ~topology:t ~k alloc classes
  | None -> ());
  Allocation.ensure_update_closure alloc;
  Array.init n (fun b ->
      Fragment.Set.diff (Allocation.fragments_of alloc b) before.(b))
