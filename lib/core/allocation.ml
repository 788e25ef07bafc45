module Bits = Cdbs_util.Bits

type t = {
  workload : Workload.t;
  classes : Query_class.t array;  (** reads, then updates: the state's order *)
  index : (string, int) Hashtbl.t;  (** class id -> index into [classes] *)
  state : Dense.t;
}

(* The index of [f] in [frags], which are sorted by Fragment.compare. *)
let fragment_index frags f =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = Fragment.compare frags.(mid) f in
      if c = 0 then Some mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length frags)

let create workload backend_list =
  let classes = Array.of_list (Workload.all_classes workload) in
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
  let spec (c : Query_class.t) =
    {
      Dense.cs_id = c.id;
      cs_update = Query_class.is_update c;
      cs_weight = c.weight;
      cs_frags =
        Array.of_list
          (List.map
             (fun f -> Option.get (fragment_index frags f))
             (Fragment.Set.elements c.fragments));
    }
  in
  let inst =
    Dense.make_instance ~frags
      ~backends:(Array.of_list backend_list)
      ~frag_size:(Array.map (fun f -> f.Fragment.size) frags)
      (Array.map spec classes)
  in
  { workload; classes; index; state = Dense.create inst }

let frags t = Option.get t.state.Dense.inst.Dense.frags

let with_state t s =
  let inst = s.Dense.inst in
  if inst == t.state.Dense.inst then { t with state = s }
  else begin
    if
      inst.Dense.n_classes <> Array.length t.classes
      || Dense.num_backends s <> Dense.num_backends t.state
      || inst.Dense.frags = None
    then invalid_arg "Allocation.with_state: not a state of this allocation";
    let classes =
      Array.mapi
        (fun k (c : Query_class.t) ->
          let weight = inst.Dense.class_weight.(k) in
          if weight = c.weight then c else { c with weight })
        t.classes
    in
    let nr = Array.length inst.Dense.read_idx in
    let workload =
      Workload.make
        ~reads:(Array.to_list (Array.sub classes 0 nr))
        ~updates:
          (Array.to_list (Array.sub classes nr (Array.length classes - nr)))
    in
    { t with workload; classes; state = s }
  end

let state t =
  Dense.rebuild t.state;
  t.state

let copy t = { t with state = Dense.copy t.state }
let backends t = t.state.Dense.inst.Dense.backends
let workload t = t.workload
let num_backends t = Dense.num_backends t.state
let classes t = t.classes

let position t id = Hashtbl.find_opt t.index id

let class_index t c =
  match Hashtbl.find_opt t.index c.Query_class.id with
  | Some i -> i
  | None -> invalid_arg ("Allocation: unknown class " ^ c.Query_class.id)

let fragments_of t b =
  let frags = frags t and acc = ref [] in
  Bits.iter (fun i -> acc := frags.(i) :: !acc) t.state.Dense.held.(b);
  Fragment.Set.of_list !acc

(* Callers may pass an equal class built apart from the workload (a
   request's class, say), so only the id and the fragments must match for
   the compiled footprint to apply. *)
let holds t b c =
  match Hashtbl.find_opt t.index c.Query_class.id with
  | Some k
    when t.classes.(k) == c
         || Fragment.Set.equal t.classes.(k).Query_class.fragments
              c.Query_class.fragments ->
      Dense.holds t.state b k
  | _ ->
      Fragment.Set.for_all
        (fun f ->
          match fragment_index (frags t) f with
          | Some i -> Bits.get t.state.Dense.held.(b) i
          | None -> false)
        c.Query_class.fragments

let get_assign t b c = Dense.share t.state b (class_index t c)
let set_assign t b c w = Dense.set_share t.state b (class_index t c) w

let add_fragments t b frs =
  Fragment.Set.iter
    (fun f ->
      match fragment_index (frags t) f with
      | Some i -> Bits.set t.state.Dense.held.(b) i
      | None ->
          invalid_arg
            ("Allocation.add_fragments: " ^ Fragment.name f
           ^ " is outside the workload"))
    frs

(* The sums are taken afresh, each backend's load in ascending class order
   and its sizes in ascending fragment index (Fragment.compare order). *)
let assigned_load t b =
  let s = ref 0. in
  for k = 0 to Array.length t.classes - 1 do
    s := !s +. Dense.share t.state b k
  done;
  !s

let summed t =
  Dense.refresh t.state;
  t.state

let scale t = Dense.scale (summed t)
let speedup t = float_of_int (num_backends t) /. scale t
let total_stored t = Dense.total_stored (summed t)

let ensure_update_closure t =
  let s = t.state in
  let inst = s.Dense.inst in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun k ->
        let w = inst.Dense.class_weight.(k) in
        for b = 0 to num_backends t - 1 do
          if Dense.overlaps s b k then begin
            if not (Dense.holds s b k) then begin
              Dense.iter_footprint inst k (Bits.set s.Dense.held.(b));
              changed := true
            end;
            if Dense.share s b k <> w then begin
              Dense.set_share s b k w;
              changed := true
            end
          end
        done)
      inst.Dense.upd_idx
  done

let validate t =
  let s = t.state in
  let inst = s.Dense.inst in
  let n = num_backends t in
  let errors = ref [] in
  let err fmt = Fmt.kstr (fun s -> errors := s :: !errors) fmt in
  let total k =
    let sum = ref 0. in
    Dense.iter_shares s k (fun _ w -> sum := !sum +. w);
    !sum
  in
  (* Eq. 8: positive assignment implies the data is present. *)
  for b = 0 to n - 1 do
    Array.iteri
      (fun k (c : Query_class.t) ->
        let w = Dense.share s b k in
        if w < -.Eps.assign then err "negative assignment of %s on B%d" c.id (b + 1);
        if w > Eps.assign && not (Dense.holds s b k) then
          err "class %s assigned to B%d without its fragments" c.id (b + 1))
      t.classes
  done;
  (* Eq. 9: read classes fully assigned. *)
  Array.iter
    (fun k ->
      let c = t.classes.(k) in
      let total = total k in
      if abs_float (total -. c.weight) > Eps.weight then
        err "read class %s assigned %.4f of weight %.4f" c.id total c.weight)
    inst.Dense.read_idx;
  (* Eq. 10: updates pinned wherever their data lives. *)
  Array.iter
    (fun k ->
      let u = t.classes.(k) in
      for b = 0 to n - 1 do
        let w = Dense.share s b k in
        if Dense.overlaps s b k then begin
          if abs_float (w -. u.weight) > Eps.assign then
            err "update class %s not pinned at full weight on B%d" u.id (b + 1)
        end
        else if w > Eps.assign then
          err "update class %s assigned to B%d without data" u.id (b + 1)
      done)
    inst.Dense.upd_idx;
  (* Eq. 11: every update class allocated somewhere. *)
  Array.iter
    (fun k ->
      let u = t.classes.(k) in
      if u.weight > 0. && total k < u.weight -. Eps.assign then
        err "update class %s nowhere allocated" u.id)
    inst.Dense.upd_idx;
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
      Array.iteri
        (fun k _ ->
          Fmt.pf ppf "%*.1f%%" (width - 1) (100. *. Dense.share t.state b k))
        t.classes;
      Fmt.pf ppf "%8.1f%%@," (100. *. assigned_load t b))
    (backends t);
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
            (if Bits.get t.state.Dense.held.(b)
                  (Option.get (fragment_index (frags t) f))
             then 1
             else 0))
        all_fragments;
      Fmt.pf ppf "@,")
    (backends t);
  Fmt.pf ppf "@]"
