type t = {
  backends : Backend.t array;
  workload : Workload.t;
  classes : Query_class.t array;
  index : (string, int) Hashtbl.t;  (** class id -> index into [classes] *)
  fragments : Fragment.Set.t array;  (** per backend *)
  assign : float array array;  (** backends x classes *)
}

let create workload backend_list =
  let backends = Array.of_list backend_list in
  let classes =
    Array.of_list (workload.Workload.reads @ workload.Workload.updates)
  in
  let index = Hashtbl.create (Array.length classes) in
  Array.iteri
    (fun i c -> Hashtbl.replace index c.Query_class.id i)
    classes;
  {
    backends;
    workload;
    classes;
    index;
    fragments = Array.make (Array.length backends) Fragment.Set.empty;
    assign =
      Array.make_matrix (Array.length backends) (Array.length classes) 0.;
  }

let copy t =
  {
    t with
    fragments = Array.copy t.fragments;
    assign = Array.map Array.copy t.assign;
  }

let blit ~src ~dst =
  if Array.length src.backends <> Array.length dst.backends
     || Array.length src.classes <> Array.length dst.classes
  then invalid_arg "Allocation.blit: shape mismatch";
  Array.blit src.fragments 0 dst.fragments 0 (Array.length src.fragments);
  Array.iteri (fun b row -> Array.blit row 0 dst.assign.(b) 0 (Array.length row)) src.assign

let backends t = t.backends
let workload t = t.workload
let num_backends t = Array.length t.backends
let classes t = t.classes

let class_index t c =
  match Hashtbl.find_opt t.index c.Query_class.id with
  | Some i -> i
  | None -> invalid_arg ("Allocation: unknown class " ^ c.Query_class.id)

let fragments_of t b = t.fragments.(b)

let holds t b c =
  Fragment.Set.subset c.Query_class.fragments t.fragments.(b)

let get_assign t b c = t.assign.(b).(class_index t c)
let set_assign t b c w = t.assign.(b).(class_index t c) <- w

let add_fragments t b frs =
  t.fragments.(b) <- Fragment.Set.union t.fragments.(b) frs

let assigned_load t b = Array.fold_left ( +. ) 0. t.assign.(b)

let update_weight t b c =
  List.fold_left
    (fun acc u -> acc +. get_assign t b u)
    0.
    (Workload.updates_of t.workload c)

let scale t =
  let s = ref 1. in
  Array.iteri
    (fun b backend ->
      let r = assigned_load t b /. backend.Backend.load in
      if r > !s then s := r)
    t.backends;
  !s

let scaled_load t b =
  let s = scale t in
  t.backends.(b).Backend.load *. if s > 1. then s else 1.

let speedup t = float_of_int (num_backends t) /. scale t

let total_stored t =
  Array.fold_left (fun acc frs -> acc +. Fragment.set_size frs) 0. t.fragments

let overlaps_backend t b (c : Query_class.t) =
  not (Fragment.Set.disjoint c.Query_class.fragments t.fragments.(b))

let ensure_update_closure t =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun u ->
        Array.iteri
          (fun b _ ->
            if overlaps_backend t b u then begin
              if not (holds t b u) then begin
                add_fragments t b u.Query_class.fragments;
                changed := true
              end;
              if get_assign t b u <> u.Query_class.weight then begin
                set_assign t b u u.Query_class.weight;
                changed := true
              end
            end)
          t.backends)
      t.workload.Workload.updates
  done

let prune t =
  (* Remember, per update class, one backend currently carrying it, to fall
     back on when pruning would orphan the class (Eq. 11). *)
  let home u =
    let rec find b =
      if b >= num_backends t then None
      else if get_assign t b u > 0. && holds t b u then Some b
      else find (b + 1)
    in
    find 0
  in
  let update_homes =
    List.map (fun u -> (u, home u)) t.workload.Workload.updates
  in
  (* Keep only fragments needed by assigned read classes. *)
  Array.iteri
    (fun b _ ->
      let needed =
        List.fold_left
          (fun acc c ->
            if get_assign t b c > 0. then
              Fragment.Set.union acc c.Query_class.fragments
            else acc)
          Fragment.Set.empty t.workload.Workload.reads
      in
      t.fragments.(b) <- needed;
      (* Clear update pinnings; the closure below re-establishes them. *)
      List.iter
        (fun u -> set_assign t b u 0.)
        t.workload.Workload.updates)
    t.backends;
  (* Re-home update classes that no longer overlap any backend. *)
  List.iter
    (fun (u, old_home) ->
      let somewhere =
        let rec any b =
          b < num_backends t && (overlaps_backend t b u || any (b + 1))
        in
        any 0
      in
      if not somewhere then begin
        let b =
          match old_home with
          | Some b -> b
          | None ->
              (* Least-loaded backend relative to its capacity. *)
              let best = ref 0 and best_r = ref infinity in
              Array.iteri
                (fun b backend ->
                  let r = assigned_load t b /. backend.Backend.load in
                  if r < !best_r then begin
                    best := b;
                    best_r := r
                  end)
                t.backends;
              !best
        in
        add_fragments t b u.Query_class.fragments
      end)
    update_homes;
  ensure_update_closure t

let validate t =
  let errors = ref [] in
  let err fmt = Fmt.kstr (fun s -> errors := s :: !errors) fmt in
  (* Eq. 8: positive assignment implies the data is present. *)
  Array.iteri
    (fun b _ ->
      Array.iteri
        (fun k w ->
          let c = t.classes.(k) in
          if w < -.Eps.assign then err "negative assignment of %s on B%d" c.Query_class.id (b + 1);
          if w > Eps.assign && not (holds t b c) then
            err "class %s assigned to B%d without its fragments"
              c.Query_class.id (b + 1))
        t.assign.(b))
    t.backends;
  (* Eq. 9: read classes fully assigned. *)
  List.iter
    (fun c ->
      let total = ref 0. in
      Array.iteri (fun b _ -> total := !total +. get_assign t b c) t.backends;
      if abs_float (!total -. c.Query_class.weight) > Eps.weight then
        err "read class %s assigned %.4f of weight %.4f" c.Query_class.id
          !total c.Query_class.weight)
    t.workload.Workload.reads;
  (* Eq. 10: updates pinned wherever their data lives. *)
  List.iter
    (fun u ->
      Array.iteri
        (fun b _ ->
          if overlaps_backend t b u then begin
            if abs_float (get_assign t b u -. u.Query_class.weight) > Eps.assign
            then
              err "update class %s not pinned at full weight on B%d"
                u.Query_class.id (b + 1)
          end
          else if get_assign t b u > Eps.assign then
            err "update class %s assigned to B%d without data"
              u.Query_class.id (b + 1))
        t.backends)
    t.workload.Workload.updates;
  (* Eq. 11: every update class allocated somewhere. *)
  List.iter
    (fun u ->
      let total = ref 0. in
      Array.iteri (fun b _ -> total := !total +. get_assign t b u) t.backends;
      if u.Query_class.weight > 0. && !total < u.Query_class.weight -. Eps.assign
      then err "update class %s nowhere allocated" u.Query_class.id)
    t.workload.Workload.updates;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let pp_load_matrix ppf t =
  let class_ids =
    Array.to_list (Array.map (fun c -> c.Query_class.id) t.classes)
  in
  let width =
    List.fold_left (fun acc id -> max acc (String.length id + 2)) 8 class_ids
  in
  Fmt.pf ppf "@[<v>%8s" "";
  List.iter (fun id -> Fmt.pf ppf "%*s" width id) class_ids;
  Fmt.pf ppf "%9s@," "Overall";
  Array.iteri
    (fun b backend ->
      Fmt.pf ppf "%8s" backend.Backend.name;
      Array.iter
        (fun w -> Fmt.pf ppf "%*.1f%%" (width - 1) (100. *. w))
        t.assign.(b);
      Fmt.pf ppf "%8.1f%%@," (100. *. assigned_load t b))
    t.backends;
  Fmt.pf ppf "@]"

let pp_allocation_matrix ppf t =
  let all_fragments =
    Fragment.Set.elements (Workload.fragments t.workload)
  in
  Fmt.pf ppf "@[<v>%8s" "";
  List.iter (fun f -> Fmt.pf ppf "%12s" (Fragment.name f)) all_fragments;
  Fmt.pf ppf "@,";
  Array.iteri
    (fun b backend ->
      Fmt.pf ppf "%8s" backend.Backend.name;
      List.iter
        (fun f ->
          Fmt.pf ppf "%12d"
            (if Fragment.Set.mem f t.fragments.(b) then 1 else 0))
        all_fragments;
      Fmt.pf ppf "@,")
    t.backends;
  Fmt.pf ppf "@]"
