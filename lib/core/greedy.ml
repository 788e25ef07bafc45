let eps = Eps.assign

(* Fragments a class brings along: its own plus those of its updates. *)
let closure_fragments workload c =
  List.fold_left
    (fun acc u -> Fragment.Set.union acc u.Query_class.fragments)
    c.Query_class.fragments
    (Workload.updates_of workload c)

(* Combined weight of {C} ∪ updates(C), counting each class once. *)
let closure_weight workload c ~rest_weight =
  let updates = Workload.updates_of workload c in
  let update_weight =
    List.fold_left
      (fun acc u ->
        if u.Query_class.id = c.Query_class.id then acc
        else acc +. u.Query_class.weight)
      0. updates
  in
  rest_weight +. update_weight

let sort_key workload c ~rest_weight =
  closure_weight workload c ~rest_weight
  *. Fragment.set_size (closure_fragments workload c)

let allocate (workload : Workload.t) (backend_list : Backend.t list) :
    Allocation.t =
  let alloc = Allocation.create workload backend_list in
  let n = Allocation.num_backends alloc in
  if n = 0 then invalid_arg "Greedy.allocate: no backends";
  let backends = Allocation.backends alloc in
  let load b = backends.(b).Backend.load in
  let current_load = Array.make n 0. in
  let scaled_load = Array.init n load in
  let rest_weight : (string, float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun c -> Hashtbl.replace rest_weight c.Query_class.id c.Query_class.weight)
    (Workload.all_classes workload);
  let rest c = Hashtbl.find rest_weight c.Query_class.id in
  (* C*: all read classes, plus update classes that overlap no read class
     (Eq. 20) — the rest are dragged in with the reads they overlap. *)
  let explicit =
    workload.Workload.reads
    @ List.filter
        (fun u ->
          not
            (List.exists
               (fun q -> Query_class.overlaps u q)
               workload.Workload.reads))
        workload.Workload.updates
  in
  (* Descending by the weight-times-size key; ties broken by remaining
     weight then by data size (the appendix trace orders (Q1, Q3) when both
     keys are equal but Q1 has more weight left). *)
  let sort cs =
    List.stable_sort
      (fun a b ->
        let ka = sort_key workload a ~rest_weight:(rest a)
        and kb = sort_key workload b ~rest_weight:(rest b) in
        match Stdlib.compare kb ka with
        | 0 -> (
            match Stdlib.compare (rest b) (rest a) with
            | 0 -> Stdlib.compare (Query_class.size b) (Query_class.size a)
            | c -> c)
        | c -> c)
      cs
  in
  let queue = ref (sort explicit) in
  (* Total pinned update weight on a backend. *)
  let pinned_update_weight b =
    List.fold_left
      (fun acc u -> acc +. Allocation.get_assign alloc b u)
      0. workload.Workload.updates
  in
  (* Pin every update class overlapping backend [b]'s data, chasing chained
     overlaps to a fixpoint; returns the update weight newly added. *)
  let pin_updates b =
    let before = pinned_update_weight b in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun u ->
          let overlap =
            Allocation.overlaps_at alloc b (Allocation.class_index alloc u)
          in
          if overlap && Allocation.get_assign alloc b u < u.Query_class.weight
          then begin
            Allocation.add_fragments alloc b u.Query_class.fragments;
            Allocation.set_assign alloc b u u.Query_class.weight;
            Hashtbl.replace rest_weight u.Query_class.id 0.;
            changed := true
          end)
        workload.Workload.updates
    done;
    pinned_update_weight b -. before
  in
  let all_full () =
    let rec go b =
      b >= n || (current_load.(b) >= scaled_load.(b) -. eps && go (b + 1))
    in
    go 0
  in
  let difference c b =
    if current_load.(b) >= scaled_load.(b) -. eps then infinity
    else if current_load.(b) <= eps then 0.
    else
      Fragment.set_size
        (Fragment.Set.diff (closure_fragments workload c)
           (Allocation.fragments_of alloc b))
  in
  let continue = ref true in
  while !continue do
    match !queue with
    | [] -> continue := false
    | c :: remaining ->
        (* Line 7–9: when every backend is at capacity, open room in
           proportion to each backend's relative performance. *)
        if all_full () then
          for b = 0 to n - 1 do
            scaled_load.(b) <-
              current_load.(b) +. (load b *. c.Query_class.weight)
          done;
        (* Line 10–17: pick the backend needing the least new data. *)
        let best = ref 0 and best_diff = ref (difference c 0) in
        for b = 1 to n - 1 do
          let d = difference c b in
          if d < !best_diff then begin
            best := b;
            best_diff := d
          end
        done;
        let b = !best in
        (* Line 18–19: install the data and account the update load that is
           new on this backend. *)
        Allocation.add_fragments alloc b (closure_fragments workload c);
        let added_updates = pin_updates b in
        current_load.(b) <- current_load.(b) +. added_updates;
        if Query_class.is_update c then begin
          (* Line 20–23: update classes are placed exactly once. *)
          if current_load.(b) > scaled_load.(b) then
            scaled_load.(b) <- current_load.(b);
          queue := sort remaining
        end
        else begin
          (* Line 24–32: fill the backend with as much read weight as its
             scaled capacity allows. *)
          if current_load.(b) >= scaled_load.(b) -. eps then
            scaled_load.(b) <-
              current_load.(b) +. (load b *. c.Query_class.weight);
          let capacity = scaled_load.(b) -. current_load.(b) in
          let rw = rest c in
          if rw > capacity +. eps then begin
            Hashtbl.replace rest_weight c.Query_class.id (rw -. capacity);
            Allocation.set_assign alloc b c
              (Allocation.get_assign alloc b c +. capacity);
            current_load.(b) <- scaled_load.(b);
            queue := sort (c :: remaining)
          end
          else begin
            Allocation.set_assign alloc b c
              (Allocation.get_assign alloc b c +. rw);
            Hashtbl.replace rest_weight c.Query_class.id 0.;
            current_load.(b) <- current_load.(b) +. rw;
            queue := sort remaining
          end
        end
  done;
  Invariants.check_allocation ~context:"Greedy.allocate" alloc;
  alloc
