module Simplex = Cdbs_lp.Simplex
module Mip = Cdbs_lp.Mip

type report = {
  allocation : Allocation.t;
  scale : float;
  space : float;
  proved_optimal : bool;
}

(* Variable layout for the MIP (see Appendix B):
   [0]                      scale
   [1 .. nb*nf]             A(i,j)    backend i, fragment j
   [.. + nb*nq]             LQ(i,k)
   [.. + nb*nu]             LU(i,m)
   [.. + nb*nq]             HQ(i,k)   binary
   [.. + nb*nu]             HU(i,m)   binary *)
type layout = {
  nb : int;
  nf : int;
  nq : int;
  nu : int;
  a0 : int;
  lq0 : int;
  lu0 : int;
  hq0 : int;
  hu0 : int;
  total : int;
}

let layout ~nb ~nf ~nq ~nu =
  let a0 = 1 in
  let lq0 = a0 + (nb * nf) in
  let lu0 = lq0 + (nb * nq) in
  let hq0 = lu0 + (nb * nu) in
  let hu0 = hq0 + (nb * nq) in
  { nb; nf; nq; nu; a0; lq0; lu0; hq0; hu0; total = hu0 + (nb * nu) }

let a_var l i j = l.a0 + (i * l.nf) + j
let lq_var l i k = l.lq0 + (i * l.nq) + k
let lu_var l i m = l.lu0 + (i * l.nu) + m
let hq_var l i k = l.hq0 + (i * l.nq) + k
let hu_var l i m = l.hu0 + (i * l.nu) + m

let build_rows l ~fragments ~reads ~updates ~loads ~overlap_pairs =
  let rows = ref [] in
  let add r = rows := r :: !rows in
  let frag_index =
    let h = Hashtbl.create 64 in
    Array.iteri (fun j f -> Hashtbl.replace h (Fragment.name f) j) fragments;
    fun f -> Hashtbl.find h (Fragment.name f)
  in
  (* scale >= 1 *)
  add (Simplex.row [ (0, 1.) ] Simplex.Ge 1.);
  (* Eq. 38: read classes fully distributed. *)
  Array.iteri
    (fun k (c : Query_class.t) ->
      add
        (Simplex.row
           (List.init l.nb (fun i -> (lq_var l i k, 1.)))
           Simplex.Eq c.weight))
    reads;
  (* Eq. 39: update classes allocated at least once. *)
  Array.iteri
    (fun m (c : Query_class.t) ->
      add
        (Simplex.row
           (List.init l.nb (fun i -> (lu_var l i m, 1.)))
           Simplex.Ge c.weight))
    updates;
  (* Eq. 42: LU = weight * HU. *)
  for i = 0 to l.nb - 1 do
    Array.iteri
      (fun m (c : Query_class.t) ->
        add
          (Simplex.row
             [ (lu_var l i m, 1.); (hu_var l i m, -.c.weight) ]
             Simplex.Eq 0.))
      updates
  done;
  (* HQ indicator: LQ <= weight * HQ. *)
  for i = 0 to l.nb - 1 do
    Array.iteri
      (fun k (c : Query_class.t) ->
        add
          (Simplex.row
             [ (lq_var l i k, 1.); (hq_var l i k, -.c.weight) ]
             Simplex.Le 0.))
      reads
  done;
  (* Eq. 41 second case: a read class forces its overlapping updates. *)
  for i = 0 to l.nb - 1 do
    List.iter
      (fun (k, m) ->
        add
          (Simplex.row
             [ (hu_var l i m, 1.); (hq_var l i k, -1.) ]
             Simplex.Ge 0.))
      overlap_pairs
  done;
  (* Eq. 10: a stored fragment of an update class pins it, so update
     classes chained through shared fragments pin each other too. *)
  for i = 0 to l.nb - 1 do
    Array.iteri
      (fun m (c : Query_class.t) ->
        Fragment.Set.iter
          (fun f ->
            add
              (Simplex.row
                 [ (hu_var l i m, 1.); (a_var l i (frag_index f), -1.) ]
                 Simplex.Ge 0.))
          c.Query_class.fragments)
      updates
  done;
  (* Eq. 43: per-backend capacity scaled by the scale factor. *)
  for i = 0 to l.nb - 1 do
    let coeffs =
      List.init l.nq (fun k -> (lq_var l i k, 1.))
      @ List.init l.nu (fun m -> (lu_var l i m, 1.))
      @ [ (0, -.loads.(i)) ]
    in
    add (Simplex.row coeffs Simplex.Le 0.)
  done;
  (* Eqs. 44-45: allocated classes need their fragments present. *)
  for i = 0 to l.nb - 1 do
    Array.iteri
      (fun k (c : Query_class.t) ->
        let frs = Fragment.Set.elements c.Query_class.fragments in
        add
          (Simplex.row
             (List.map (fun f -> (a_var l i (frag_index f), 1.)) frs
             @ [ (hq_var l i k, -.float_of_int (List.length frs)) ])
             Simplex.Ge 0.))
      reads;
    Array.iteri
      (fun m (c : Query_class.t) ->
        let frs = Fragment.Set.elements c.Query_class.fragments in
        add
          (Simplex.row
             (List.map (fun f -> (a_var l i (frag_index f), 1.)) frs
             @ [ (hu_var l i m, -.float_of_int (List.length frs)) ])
             Simplex.Ge 0.))
      updates
  done;
  (* A, HQ, HU in [0,1]. *)
  for i = 0 to l.nb - 1 do
    for j = 0 to l.nf - 1 do
      add (Simplex.row [ (a_var l i j, 1.) ] Simplex.Le 1.)
    done;
    for k = 0 to l.nq - 1 do
      add (Simplex.row [ (hq_var l i k, 1.) ] Simplex.Le 1.)
    done;
    for m = 0 to l.nu - 1 do
      add (Simplex.row [ (hu_var l i m, 1.) ] Simplex.Le 1.)
    done
  done;
  List.rev !rows

let incumbent_vector l ~fragments ~reads ~updates (alloc : Allocation.t) =
  let x = Array.make l.total 0. in
  x.(0) <- Allocation.scale alloc;
  let held = Array.init l.nb (Allocation.fragments_of alloc) in
  Array.iteri
    (fun j f ->
      for i = 0 to l.nb - 1 do
        if Fragment.Set.mem f held.(i) then x.(a_var l i j) <- 1.
      done)
    fragments;
  Array.iteri
    (fun k c ->
      for i = 0 to l.nb - 1 do
        let w = Allocation.get_assign alloc i c in
        x.(lq_var l i k) <- w;
        if w > 0. then x.(hq_var l i k) <- 1.
      done)
    reads;
  Array.iteri
    (fun m (c : Query_class.t) ->
      for i = 0 to l.nb - 1 do
        let w = Allocation.get_assign alloc i c in
        x.(lu_var l i m) <- w;
        if w > 0. then x.(hu_var l i m) <- 1.
      done)
    updates;
  x

let extract_allocation l ~fragments ~reads ~updates workload backend_list x =
  let alloc = Allocation.create workload backend_list in
  for i = 0 to l.nb - 1 do
    Array.iteri
      (fun j f ->
        if x.(a_var l i j) > 0.5 then
          Allocation.add_fragments alloc i (Fragment.Set.singleton f))
      fragments;
    Array.iteri
      (fun k c ->
        let w = x.(lq_var l i k) in
        if w > 1e-9 then Allocation.set_assign alloc i c w)
      reads;
    Array.iteri
      (fun m (c : Query_class.t) ->
        if x.(hu_var l i m) > 0.5 then
          Allocation.set_assign alloc i c c.weight)
      updates
  done;
  (* The MIP may store slightly more than an update class's overlap rule
     would demand; re-establish the exact closure invariant. *)
  Allocation.ensure_update_closure alloc;
  alloc

let allocate ?(node_limit = 50_000) workload backend_list =
  let reads = Array.of_list workload.Workload.reads in
  let updates = Array.of_list workload.Workload.updates in
  let fragments =
    Array.of_list (Fragment.Set.elements (Workload.fragments workload))
  in
  let backends = Array.of_list backend_list in
  let loads = Array.map (fun b -> b.Backend.load) backends in
  let l =
    layout ~nb:(Array.length backends) ~nf:(Array.length fragments)
      ~nq:(Array.length reads) ~nu:(Array.length updates)
  in
  let overlap_pairs =
    List.concat
      (List.init l.nq (fun k ->
           List.filter_map
             (fun m ->
               if Query_class.overlaps reads.(k) updates.(m) then Some (k, m)
               else None)
             (List.init l.nu (fun m -> m))))
  in
  let rows = build_rows l ~fragments ~reads ~updates ~loads ~overlap_pairs in
  let integer_vars =
    List.init (l.nb * l.nq) (fun v -> l.hq0 + v)
    @ List.init (l.nb * l.nu) (fun v -> l.hu0 + v)
    @ List.init (l.nb * l.nf) (fun v -> l.a0 + v)
  in
  (* A is integral automatically given integral H (constraints 44-45 force
     the needed entries to exactly 1 and minimization zeroes the rest), but
     declaring it integral is free: the relaxation already returns integral
     values, so no branching happens on A. *)
  let incumbent =
    Some
      (incumbent_vector l ~fragments ~reads ~updates
         (Greedy.allocate workload backend_list))
  in
  (* Phase 1: minimize scale. *)
  let obj1 = Array.make l.total 0. in
  obj1.(0) <- 1.;
  let p1 =
    { Mip.lp = { Simplex.num_vars = l.total; objective = obj1; rows };
      integer_vars }
  in
  match Mip.solve ~node_limit ?incumbent p1 with
  | Mip.No_solution -> Error "phase 1 infeasible"
  | Mip.Solved s1 ->
      let best_scale = s1.Mip.value in
      (* Phase 2: fix the scale, minimize allocated space. *)
      let obj2 = Array.make l.total 0. in
      Array.iteri
        (fun j f ->
          for i = 0 to l.nb - 1 do
            obj2.(a_var l i j) <- f.Fragment.size
          done)
        fragments;
      let scale_cap =
        Simplex.row [ (0, 1.) ] Simplex.Le (best_scale +. 1e-6)
      in
      let p2 =
        {
          Mip.lp =
            {
              Simplex.num_vars = l.total;
              objective = obj2;
              rows = scale_cap :: rows;
            };
          integer_vars;
        }
      in
      let incumbent2 = Some s1.Mip.assignment in
      (match Mip.solve ~node_limit ?incumbent:incumbent2 p2 with
      | Mip.No_solution -> Error "phase 2 infeasible"
      | Mip.Solved s2 ->
          let allocation =
            extract_allocation l ~fragments ~reads ~updates workload
              backend_list s2.Mip.assignment
          in
          Ok
            {
              allocation;
              scale = best_scale;
              space = s2.Mip.value;
              proved_optimal = s1.Mip.proved_optimal && s2.Mip.proved_optimal;
            })

let coarsen workload =
  let classes = Workload.all_classes workload in
  (* Signature of a fragment: the sorted ids of classes referencing it. *)
  let signature f =
    List.filter_map
      (fun c ->
        if Fragment.Set.mem f c.Query_class.fragments then
          Some c.Query_class.id
        else None)
      classes
  in
  let groups : (string list, Fragment.t list) Hashtbl.t = Hashtbl.create 32 in
  Fragment.Set.iter
    (fun f ->
      let s = signature f in
      Hashtbl.replace groups s
        (f :: Option.value ~default:[] (Hashtbl.find_opt groups s)))
    (Workload.fragments workload);
  (* Map original fragment name -> compound fragment. *)
  let mapping = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ fs ->
      let total = List.fold_left (fun a f -> a +. f.Fragment.size) 0. fs in
      let names =
        List.sort String.compare (List.map Fragment.name fs)
      in
      let compound =
        Fragment.table (String.concat "+" names) ~size:total
      in
      List.iter (fun f -> Hashtbl.replace mapping (Fragment.name f) compound) fs)
    groups;
  let remap c =
    {
      c with
      Query_class.fragments =
        Fragment.Set.fold
          (fun f acc ->
            Fragment.Set.add (Hashtbl.find mapping (Fragment.name f)) acc)
          c.Query_class.fragments Fragment.Set.empty;
    }
  in
  Workload.make
    ~reads:(List.map remap workload.Workload.reads)
    ~updates:(List.map remap workload.Workload.updates)
