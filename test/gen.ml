(* Shared random-workload generators for property-based tests. *)

open Cdbs_core

let fragment_pool =
  Array.init 8 (fun i ->
      Fragment.table (String.make 1 (Char.chr (Char.code 'A' + i)))
        ~size:(1. +. float_of_int (i mod 3)))

(* A random normalized workload: 2-6 read classes, 0-3 update classes, each
   over 1-3 distinct fragments from the pool, weights normalized to 1. *)
let workload_gen =
  let open QCheck.Gen in
  let class_fragments =
    let* k = int_range 1 3 in
    let* idxs = list_size (return k) (int_range 0 7) in
    return
      (List.sort_uniq compare idxs |> List.map (fun i -> fragment_pool.(i)))
  in
  let* n_reads = int_range 2 6 in
  let* n_updates = int_range 0 3 in
  let* read_frs = list_size (return n_reads) class_fragments in
  let* update_frs = list_size (return n_updates) class_fragments in
  let* read_ws = list_size (return n_reads) (float_range 0.5 5.) in
  let* update_ws = list_size (return n_updates) (float_range 0.1 1.) in
  let reads =
    List.mapi
      (fun i (frs, w) ->
        Query_class.read (Printf.sprintf "Q%d" (i + 1)) frs ~weight:w)
      (List.combine read_frs read_ws)
  in
  let updates =
    List.mapi
      (fun i (frs, w) ->
        Query_class.update (Printf.sprintf "U%d" (i + 1)) frs ~weight:w)
      (List.combine update_frs update_ws)
  in
  return (Workload.normalize (Workload.make ~reads ~updates))

(* Random homogeneous or heterogeneous backend list with 1-6 nodes. *)
let backends_gen =
  let open QCheck.Gen in
  let* n = int_range 1 6 in
  let* hetero = bool in
  if hetero then
    let* perfs = list_size (return n) (float_range 0.5 3.) in
    return (Backend.heterogeneous perfs)
  else return (Backend.homogeneous n)

let workload_arbitrary = QCheck.make workload_gen

let scenario_arbitrary =
  QCheck.make
    QCheck.Gen.(pair workload_gen backends_gen)
    ~print:(fun (w, bs) ->
      Fmt.str "%a on %d backends" Workload.pp w (List.length bs))

(* Relative deviation of each backend's assigned load from its share of
   the performance (paper Fig. 4(j)): 0 when every backend carries exactly
   its fair share. *)
let load_deviation alloc =
  let backends = Allocation.backends alloc in
  Cdbs_util.Stats.relative_deviation
    (List.init (Array.length backends) (fun b ->
         Allocation.assigned_load alloc b /. backends.(b).Backend.load))

(* [plant alloc b frs]: [alloc] with backend [b] also storing [frs], which
   may lie outside the workload — the one way a test stores data no class
   references, since [Allocation.add_fragments] rejects it.  The result
   is a view over a new state whose instance numbers the workload's and
   the stored fragments together in Fragment.compare order, as a checker
   numbers them. *)
let plant alloc b frs =
  let inside = Workload.fragments (Allocation.workload alloc) in
  let held =
    Array.init (Allocation.num_backends alloc) (Allocation.fragments_of alloc)
  in
  held.(b) <- Fragment.Set.union held.(b) frs;
  let outside =
    Fragment.Set.diff (Array.fold_left Fragment.Set.union frs held) inside
  in
  let frags =
    Array.of_list (Fragment.Set.elements (Fragment.Set.union inside outside))
  in
  let pos = Hashtbl.create (Array.length frags) in
  Array.iteri (fun i (f : Fragment.t) -> Hashtbl.replace pos f.kind i) frags;
  let index (f : Fragment.t) = Hashtbl.find pos f.kind in
  let spec (c : Query_class.t) =
    {
      Dense.cs_id = c.id;
      cs_update = Query_class.is_update c;
      cs_weight = c.weight;
      cs_frags =
        Array.of_list (List.map index (Fragment.Set.elements c.fragments));
    }
  in
  let inst =
    Dense.make_instance ~frags ~backends:(Allocation.backends alloc)
      ~frag_size:(Array.map (fun (f : Fragment.t) -> f.size) frags)
      (Array.map spec (Allocation.classes alloc))
  in
  let s = Dense.create inst and old = Allocation.state alloc in
  Array.iteri
    (fun b -> Fragment.Set.iter (fun f -> Dense.Bits.set s.held.(b) (index f)))
    held;
  for k = 0 to inst.Dense.n_classes - 1 do
    Dense.iter_shares old k (fun b w -> Dense.set_share s b k w)
  done;
  Allocation.with_state alloc s

(* The workload a materialized instance was compiled from: its classes in
   index order, each over the instance's fragments. *)
let workload_of_instance (inst : Dense.instance) =
  let frags = Option.get inst.frags in
  let class_of c =
    let fp = ref [] in
    Dense.iter_footprint inst c (fun f -> fp := frags.(f) :: !fp);
    (if Dense.is_update inst c then Query_class.update else Query_class.read)
      inst.class_id.(c) !fp ~weight:inst.class_weight.(c)
  in
  Workload.make
    ~reads:(List.map class_of (Array.to_list inst.read_idx))
    ~updates:(List.map class_of (Array.to_list inst.upd_idx))
