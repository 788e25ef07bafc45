open Cdbs_core
module D = Diagnostic
module Vec = Cdbs_util.Vec

(* Findings are capped per code: a systematically broken massive instance
   reports the first hits plus a count, not a million records. *)
let cap = 100

module Capped = struct
  type t = {
    mutable diags : D.t list;
    counts : (string, int ref) Hashtbl.t;
  }

  let create () = { diags = []; counts = Hashtbl.create 8 }

  let add t (d : D.t) =
    let c =
      match Hashtbl.find_opt t.counts d.D.code with
      | Some r -> r
      | None ->
          let r = ref 0 in
          Hashtbl.replace t.counts d.D.code r;
          r
    in
    incr c;
    if !c <= cap then t.diags <- d :: t.diags

  let result t =
    let overflow =
      Hashtbl.fold
        (fun code c acc ->
          if !c > cap then
            D.warning ~code:"ALC015" ~subject:("code " ^ code)
              ~data:[ ("code", D.Str code); ("total", D.Int !c) ]
              "%d diagnostics of %s; showing the first %d" !c code cap
            :: acc
          else acc)
        t.counts []
    in
    List.rev_append t.diags overflow
end

let plural n = if n = 1 then "" else "s"

(* The Eq. 8-11 scans and the k-safety, topology and storage lints as
   indexed passes over the flat views: no set operations, so a
   10⁵+-fragment allocation verifies in milliseconds. *)
let check_dense ?(k = 0) ?topology (t : Dense.t) =
  let open Dense in
  let inst = t.inst in
  let out = Capped.create () in
  let add = Capped.add out in
  let n = num_backends t in
  let b_subject b = "backend " ^ inst.backends.(b).Backend.name in
  let c_subject c = "class " ^ inst.class_id.(c) in
  let frag_label f =
    match inst.frags with
    | Some frags -> Fragment.name frags.(f)
    | None -> Printf.sprintf "#%d" f
  in
  (* One pass over the alive classes' shares on alive backends, gathered
     per backend in ascending class order: the classes each backend
     serves (for ALC011), and the shares that are negative (ALC001) or
     lack their data (ALC002, Eq. 8).  Those two are reported
     backend-major, which decides the ones the per-code cap keeps. *)
  let served = Array.init n (fun _ -> Vec.create ()) in
  let bad = Array.init n (fun _ -> Vec.create ()) in
  for c = 0 to inst.n_classes - 1 do
    if t.c_alive.(c) then
      iter_shares t c (fun b w ->
          if t.b_alive.(b) then begin
            if w > Eps.assign then Vec.push served.(b) c;
            if w < -.Eps.assign || (w > Eps.assign && not (holds t b c)) then
              Vec.push bad.(b) (c, w)
          end)
  done;
  Array.iteri
    (fun b v ->
      Vec.iter
        (fun (c, w) ->
          if w < 0. then
            add
              (D.error ~code:"ALC001" ~subject:(c_subject c)
                 ~data:[ ("backend", D.Int b); ("assign", D.Num w) ]
                 "negative assignment %g on %s" w (b_subject b))
          else
            add
              (D.error ~code:"ALC002" ~subject:(c_subject c)
                 ~data:[ ("backend", D.Int b); ("assign", D.Num w) ]
                 "assigned %.4f on %s which lacks some of its fragments (Eq. 8)"
                 w (b_subject b)))
        v)
    bad;
  (* Eq. 9 (ALC003): read classes fully distributed. *)
  Array.iter
    (fun c ->
      if t.c_alive.(c) then begin
        let total = ref 0. in
        iter_shares t c (fun b w ->
            if t.b_alive.(b) then total := !total +. w);
        let w = inst.class_weight.(c) in
        if abs_float (!total -. w) > Eps.weight then
          add
            (D.error ~code:"ALC003" ~subject:(c_subject c)
               ~data:[ ("assigned", D.Num !total); ("weight", D.Num w) ]
               "read class assigned %.6f of weight %.6f (Eq. 9)" !total w)
      end)
    inst.read_idx;
  (* Eqs. 10-11 (ALC004/005/006): ROWA pinning and existence. *)
  Array.iter
    (fun u ->
      if t.c_alive.(u) then begin
        let w = inst.class_weight.(u) in
        let somewhere = ref false in
        for b = 0 to n - 1 do
          if t.b_alive.(b) then begin
            let a = share t b u in
            if overlaps t b u then begin
              if abs_float (a -. w) > Eps.assign then
                add
                  (D.error ~code:"ALC004" ~subject:(c_subject u)
                     ~data:
                       [
                         ("backend", D.Int b);
                         ("assign", D.Num a);
                         ("weight", D.Num w);
                       ]
                     "update class carries %.6f instead of its full weight \
                      %.6f on %s whose data it overlaps (ROWA, Eq. 10)"
                     a w (b_subject b));
              if a >= w -. Eps.assign then somewhere := true
            end
            else if a > Eps.assign then
              add
                (D.error ~code:"ALC005" ~subject:(c_subject u)
                   ~data:[ ("backend", D.Int b); ("assign", D.Num a) ]
                   "update class carries %.6f on %s which holds none of its \
                    data"
                   a (b_subject b))
          end
        done;
        if w > 0. && not !somewhere then
          add
            (D.error ~code:"ALC006" ~subject:(c_subject u)
               ~data:[ ("weight", D.Num w) ]
               "update class allocated nowhere (Eq. 11)")
      end)
    inst.upd_idx;
  (* ALC014: the spread checks need a zone for every backend slot. *)
  let topology =
    match topology with
    | Some topo when Topology.num_backends topo <> n ->
        add
          (D.error ~code:"ALC014" ~subject:"topology"
             ~data:
               [
                 ("topology_backends", D.Int (Topology.num_backends topo));
                 ("backends", D.Int n);
               ]
             "covers %d backends but the allocation has %d"
             (Topology.num_backends topo) n);
        None
    | topo -> topo
  in
  if k > 0 then begin
    (* k-safety (ALC009) and domain spread (ALC013) per alive class:
       replicas may not stack in fewer zones than min(k+1, live zones). *)
    let zone_of, zones =
      match topology with
      | None -> ([||], 0)
      | Some topo -> (Array.init n (Topology.zone_of topo), Topology.zones topo)
    in
    let zone_seen = Array.make zones false in
    let spanned () =
      Array.fold_left (fun acc s -> if s then acc + 1 else acc) 0 zone_seen
    in
    if zones > 0 then
      for b = 0 to n - 1 do
        if t.b_alive.(b) then zone_seen.(zone_of.(b)) <- true
      done;
    let required = min (k + 1) (spanned ()) in
    for c = 0 to inst.n_classes - 1 do
      if t.c_alive.(c) then begin
        Array.fill zone_seen 0 zones false;
        let replicas = ref 0 in
        for b = 0 to n - 1 do
          if t.b_alive.(b) && holds t b c then begin
            incr replicas;
            if zones > 0 then zone_seen.(zone_of.(b)) <- true
          end
        done;
        if !replicas < k + 1 then
          add
            (D.error ~code:"ALC009" ~subject:(c_subject c)
               ~data:[ ("replicas", D.Int !replicas); ("k", D.Int k) ]
               "served by %d backend%s, fewer than the k+1 = %d required"
               !replicas (plural !replicas) (k + 1));
        if zones > 0 then begin
          let spread = spanned () in
          if spread < required then
            add
              (D.error ~code:"ALC013" ~subject:(c_subject c)
                 ~data:
                   [
                     ("zones_spanned", D.Int spread);
                     ("required", D.Int required);
                     ("replicas", D.Int !replicas);
                   ]
                 "replicas span %d fault domain%s, fewer than the min(k+1, \
                  zones) = %d required — a single zone outage takes out every \
                  copy"
                 spread (plural spread) required)
        end
      end
    done;
    (* Eq. 46 (ALC010): every fragment some alive class references is
       stored k+1 times. *)
    let referenced = Bits.create inst.n_frags in
    for c = 0 to inst.n_classes - 1 do
      if t.c_alive.(c) then iter_footprint inst c (Bits.set referenced)
    done;
    let copies = Array.make inst.n_frags 0 in
    for b = 0 to n - 1 do
      if t.b_alive.(b) then
        Bits.iter (fun f -> copies.(f) <- copies.(f) + 1) t.held.(b)
    done;
    Bits.iter
      (fun f ->
        if copies.(f) < k + 1 then
          add
            (D.warning ~code:"ALC010" ~subject:("fragment " ^ frag_label f)
               ~data:[ ("copies", D.Int copies.(f)); ("k", D.Int k) ]
               "stored %d time%s, fewer than k+1 = %d (Eq. 46)" copies.(f)
               (plural copies.(f)) (k + 1)))
      referenced
  end;
  (* Lints (ALC011/ALC012): dead storage and idle backends.  Standby
     replicas are intentional under k > 0, so dead storage is only
     flagged at k = 0. *)
  let needed = Bits.create inst.n_frags in
  for b = 0 to n - 1 do
    if t.b_alive.(b) then begin
      let held = t.held.(b) in
      if (not (Bytes.exists (fun c -> c <> '\000') held))
         && t.load.(b) <= Eps.assign
      then
        add
          (D.info ~code:"ALC012" ~subject:(b_subject b)
             "idle: stores nothing and serves no load")
      else if k = 0 then begin
        Bits.reset needed;
        Vec.iter (fun c -> iter_footprint inst c (Bits.set needed)) served.(b);
        Bits.iter
          (fun f ->
            if not (Bits.get needed f) then
              let label = frag_label f in
              add
                (D.warning ~code:"ALC011" ~subject:(b_subject b)
                   ~data:
                     [
                       ("fragment", D.Str label);
                       ("size_mb", D.Num inst.frag_size.(f));
                     ]
                   "stores %s (%.1f MB) which no class assigned here \
                    references (prune would drop it)"
                   label inst.frag_size.(f)))
          held
      end
    end
  done;
  Capped.result out

let check ?k ?topology alloc =
  check_dense ?k ?topology (Allocation.state alloc)

let check_exn ?k ?topology ~context alloc =
  match Diagnostic.errors (check ?k ?topology alloc) with
  | [] -> ()
  | errs ->
      raise
        (Invariants.Violation
           (context ^ ": "
           ^ String.concat "; "
               (List.map (fun d -> Fmt.str "%a" Diagnostic.pp d) errs)))
