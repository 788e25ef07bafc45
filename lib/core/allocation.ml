module Bits = Cdbs_util.Bits

module Ids = Hashtbl.Make (struct
  type t = Fragment.t

  let equal = Fragment.equal
  let hash (f : Fragment.t) = Hashtbl.hash f.Fragment.kind
end)

(* Fragments by index, interned by kind.  The workload's fragments take
   the first indices, in Fragment.compare order; fragments brought in
   from outside by [add_fragments] are appended.  Append-only and shared
   by every copy of an allocation, so an index means the same fragment in
   all of them. *)
type universe = {
  ids : int Ids.t;
  mutable frags : Fragment.t array;
  mutable order : int array;  (** indices in Fragment.compare order *)
}

type t = {
  backends : Backend.t array;
  workload : Workload.t;
  classes : Query_class.t array;  (** reads, then updates *)
  n_reads : int;
  index : (string, int) Hashtbl.t;  (** class id -> index into [classes] *)
  universe : universe;
  foot : int array array;  (** per class: sorted fragment indices *)
  held : Bits.t array;  (** per backend, over the universe *)
  assign : float array array;  (** backends x classes *)
}

let intern u f =
  match Ids.find_opt u.ids f with
  | Some i -> i
  | None ->
      let i = Array.length u.frags in
      Ids.replace u.ids f i;
      u.frags <- Array.append u.frags [| f |];
      let order = Array.init (i + 1) Fun.id in
      Array.sort (fun a b -> Fragment.compare u.frags.(a) u.frags.(b)) order;
      u.order <- order;
      i

let create workload backend_list =
  let backends = Array.of_list backend_list in
  let classes =
    Array.of_list (workload.Workload.reads @ workload.Workload.updates)
  in
  let index = Hashtbl.create (Array.length classes) in
  Array.iteri
    (fun i c ->
      if Hashtbl.mem index c.Query_class.id then
        invalid_arg
          ("Allocation.create: duplicate class id " ^ c.Query_class.id);
      Hashtbl.replace index c.Query_class.id i)
    classes;
  let frags =
    Array.of_list (Fragment.Set.elements (Workload.fragments workload))
  in
  let nf = Array.length frags in
  let ids = Ids.create nf in
  Array.iteri (fun i f -> Ids.replace ids f i) frags;
  let universe = { ids; frags; order = Array.init nf Fun.id } in
  let foot =
    Array.map
      (fun c ->
        Array.of_list
          (List.map (Ids.find ids)
             (Fragment.Set.elements c.Query_class.fragments)))
      classes
  in
  {
    backends;
    workload;
    classes;
    n_reads = List.length workload.Workload.reads;
    index;
    universe;
    foot;
    held = Array.init (Array.length backends) (fun _ -> Bits.create nf);
    assign =
      Array.make_matrix (Array.length backends) (Array.length classes) 0.;
  }

let copy t =
  {
    t with
    held = Array.map Bits.copy t.held;
    assign = Array.map Array.copy t.assign;
  }

let backends t = t.backends
let workload t = t.workload
let num_backends t = Array.length t.backends
let classes t = t.classes

let position t id = Hashtbl.find_opt t.index id

let class_index t c =
  match Hashtbl.find_opt t.index c.Query_class.id with
  | Some i -> i
  | None -> invalid_arg ("Allocation: unknown class " ^ c.Query_class.id)

let holds_at t b k =
  let bits = t.held.(b) and fp = t.foot.(k) in
  let i = ref 0 in
  while !i < Array.length fp && Bits.get bits fp.(!i) do
    incr i
  done;
  !i = Array.length fp

let overlaps_at t b k =
  let bits = t.held.(b) and fp = t.foot.(k) in
  let i = ref 0 in
  while !i < Array.length fp && not (Bits.get bits fp.(!i)) do
    incr i
  done;
  !i < Array.length fp

let fragments_of t b =
  let bits = t.held.(b) and u = t.universe in
  Fragment.Set.of_list
    (Array.fold_right
       (fun i acc -> if Bits.mem bits i then u.frags.(i) :: acc else acc)
       u.order [])

(* Callers may pass an equal class built apart from the workload (a
   request's class, say), so only the id and the fragments must match for
   the interned footprint to apply. *)
let holds t b c =
  match Hashtbl.find_opt t.index c.Query_class.id with
  | Some k
    when t.classes.(k) == c
         || Fragment.Set.equal t.classes.(k).Query_class.fragments
              c.Query_class.fragments ->
      holds_at t b k
  | _ ->
      Fragment.Set.for_all
        (fun f ->
          match Ids.find_opt t.universe.ids f with
          | Some i -> Bits.mem t.held.(b) i
          | None -> false)
        c.Query_class.fragments

let assign_at t b k = t.assign.(b).(k)
let set_assign_at t b k w = t.assign.(b).(k) <- w
let get_assign t b c = t.assign.(b).(class_index t c)
let set_assign t b c w = t.assign.(b).(class_index t c) <- w

let add_class_at t b k =
  let bits = t.held.(b) and fp = t.foot.(k) in
  for i = 0 to Array.length fp - 1 do
    Bits.set bits fp.(i)
  done

let add_fragment_at t b i =
  if i < 0 || i >= Array.length t.universe.frags then
    invalid_arg "Allocation.add_fragment_at: no such fragment";
  let bits = Bits.grow t.held.(b) (i + 1) in
  t.held.(b) <- bits;
  Bits.set bits i

let add_fragments t b frs =
  Fragment.Set.iter (fun f -> add_fragment_at t b (intern t.universe f)) frs

let assigned_load t b =
  let row = t.assign.(b) in
  let s = ref 0. in
  for k = 0 to Array.length row - 1 do
    s := !s +. row.(k)
  done;
  !s

let scale t =
  let s = ref 1. in
  for b = 0 to Array.length t.backends - 1 do
    let r = assigned_load t b /. t.backends.(b).Backend.load in
    if r > !s then s := r
  done;
  !s

let speedup t = float_of_int (num_backends t) /. scale t

(* Each backend's sizes summed in Fragment.compare order, as
   Fragment.set_size does. *)
let total_stored t =
  let u = t.universe in
  let total = ref 0. in
  for b = 0 to Array.length t.held - 1 do
    let bits = t.held.(b) in
    let s = ref 0. in
    for j = 0 to Array.length u.order - 1 do
      let i = u.order.(j) in
      if Bits.mem bits i then s := !s +. u.frags.(i).Fragment.size
    done;
    total := !total +. !s
  done;
  !total

let ensure_update_closure t =
  let nc = Array.length t.classes in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = t.n_reads to nc - 1 do
      let w = t.classes.(k).Query_class.weight in
      for b = 0 to num_backends t - 1 do
        if overlaps_at t b k then begin
          if not (holds_at t b k) then begin
            add_class_at t b k;
            changed := true
          end;
          if t.assign.(b).(k) <> w then begin
            t.assign.(b).(k) <- w;
            changed := true
          end
        end
      done
    done
  done

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
          if w > Eps.assign && not (holds_at t b k) then
            err "class %s assigned to B%d without its fragments"
              c.Query_class.id (b + 1))
        t.assign.(b))
    t.backends;
  (* Eq. 9: read classes fully assigned. *)
  for k = 0 to t.n_reads - 1 do
    let c = t.classes.(k) in
    let total = ref 0. in
    Array.iteri (fun b _ -> total := !total +. t.assign.(b).(k)) t.backends;
    if abs_float (!total -. c.Query_class.weight) > Eps.weight then
      err "read class %s assigned %.4f of weight %.4f" c.Query_class.id
        !total c.Query_class.weight
  done;
  (* Eq. 10: updates pinned wherever their data lives. *)
  for k = t.n_reads to Array.length t.classes - 1 do
    let u = t.classes.(k) in
    Array.iteri
      (fun b _ ->
        if overlaps_at t b k then begin
          if abs_float (t.assign.(b).(k) -. u.Query_class.weight) > Eps.assign
          then
            err "update class %s not pinned at full weight on B%d"
              u.Query_class.id (b + 1)
        end
        else if t.assign.(b).(k) > Eps.assign then
          err "update class %s assigned to B%d without data"
            u.Query_class.id (b + 1))
      t.backends
  done;
  (* Eq. 11: every update class allocated somewhere. *)
  for k = t.n_reads to Array.length t.classes - 1 do
    let u = t.classes.(k) in
    let total = ref 0. in
    Array.iteri (fun b _ -> total := !total +. t.assign.(b).(k)) t.backends;
    if u.Query_class.weight > 0. && !total < u.Query_class.weight -. Eps.assign
    then err "update class %s nowhere allocated" u.Query_class.id
  done;
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
            (if Bits.get t.held.(b) (Ids.find t.universe.ids f) then 1 else 0))
        all_fragments;
      Fmt.pf ppf "@,")
    t.backends;
  Fmt.pf ppf "@]"
