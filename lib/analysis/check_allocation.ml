open Cdbs_core
module D = Diagnostic

let backend_subject (alloc : Allocation.t) b =
  "backend " ^ (Allocation.backends alloc).(b).Backend.name

let class_subject (c : Query_class.t) = "class " ^ c.Query_class.id

let overlaps alloc b (c : Query_class.t) =
  not
    (Fragment.Set.disjoint c.Query_class.fragments
       (Allocation.fragments_of alloc b))

(* Eq. 8 plus sign sanity, per (backend, class). *)
let check_locality alloc =
  let n = Allocation.num_backends alloc in
  let out = ref [] in
  for b = 0 to n - 1 do
    Array.iter
      (fun c ->
        let w = Allocation.get_assign alloc b c in
        if w < -.Eps.assign then
          out :=
            D.error ~code:"ALC001" ~subject:(class_subject c)
              ~data:[ ("backend", D.Int b); ("assign", D.Num w) ]
              "negative assignment %g on %s" w
              (backend_subject alloc b)
            :: !out;
        if w > Eps.assign && not (Allocation.holds alloc b c) then
          out :=
            D.error ~code:"ALC002" ~subject:(class_subject c)
              ~data:[ ("backend", D.Int b); ("assign", D.Num w) ]
              "assigned %.4f on %s which lacks some of its fragments (Eq. 8)"
              w (backend_subject alloc b)
            :: !out)
      (Allocation.classes alloc)
  done;
  !out

(* Eq. 9: read classes fully distributed. *)
let check_read_conservation alloc =
  let workload = Allocation.workload alloc in
  let n = Allocation.num_backends alloc in
  List.filter_map
    (fun (c : Query_class.t) ->
      let total = ref 0. in
      for b = 0 to n - 1 do
        total := !total +. Allocation.get_assign alloc b c
      done;
      if abs_float (!total -. c.Query_class.weight) > Eps.weight then
        Some
          (D.error ~code:"ALC003" ~subject:(class_subject c)
             ~data:
               [
                 ("assigned", D.Num !total);
                 ("weight", D.Num c.Query_class.weight);
               ]
             "read class assigned %.6f of weight %.6f (Eq. 9)" !total
             c.Query_class.weight)
      else None)
    workload.Workload.reads

(* Eqs. 10-11: ROWA pinning and existence of update classes. *)
let check_updates alloc =
  let workload = Allocation.workload alloc in
  let n = Allocation.num_backends alloc in
  List.concat_map
    (fun (u : Query_class.t) ->
      let per_backend = ref [] in
      let somewhere = ref false in
      for b = 0 to n - 1 do
        let w = Allocation.get_assign alloc b u in
        if overlaps alloc b u then begin
          if abs_float (w -. u.Query_class.weight) > Eps.assign then
            per_backend :=
              D.error ~code:"ALC004" ~subject:(class_subject u)
                ~data:
                  [
                    ("backend", D.Int b); ("assign", D.Num w);
                    ("weight", D.Num u.Query_class.weight);
                  ]
                "update class carries %.6f instead of its full weight %.6f \
                 on %s whose data it overlaps (ROWA, Eq. 10)"
                w u.Query_class.weight
                (backend_subject alloc b)
              :: !per_backend;
          if w >= u.Query_class.weight -. Eps.assign then somewhere := true
        end
        else if w > Eps.assign then
          per_backend :=
            D.error ~code:"ALC005" ~subject:(class_subject u)
              ~data:[ ("backend", D.Int b); ("assign", D.Num w) ]
              "update class carries %.6f on %s which holds none of its data"
              w
              (backend_subject alloc b)
            :: !per_backend
      done;
      if u.Query_class.weight > 0. && not !somewhere then
        D.error ~code:"ALC006" ~subject:(class_subject u)
          ~data:[ ("weight", D.Num u.Query_class.weight) ]
          "update class allocated nowhere (Eq. 11)"
        :: !per_backend
      else !per_backend)
    workload.Workload.updates

let check_scale ?max_scale alloc =
  match max_scale with
  | None -> []
  | Some bound ->
      let s = Allocation.scale alloc in
      if s > bound +. Eps.weight then
        [
          D.error ~code:"ALC007" ~subject:"allocation"
            ~data:[ ("scale", D.Num s); ("max_scale", D.Num bound) ]
            "scale factor %.4f exceeds the bound %.4f (Eqs. 14-15)" s bound;
        ]
      else []

let check_storage ?storage_limit_mb alloc =
  match storage_limit_mb with
  | None -> []
  | Some limits ->
      let n = min (Array.length limits) (Allocation.num_backends alloc) in
      let out = ref [] in
      for b = 0 to n - 1 do
        let stored = Fragment.set_size (Allocation.fragments_of alloc b) in
        if stored > limits.(b) +. Eps.weight then
          out :=
            D.error ~code:"ALC008" ~subject:(backend_subject alloc b)
              ~data:[ ("stored_mb", D.Num stored); ("limit_mb", D.Num limits.(b)) ]
              "stores %.1f MB, over its %.1f MB limit" stored limits.(b)
            :: !out
      done;
      !out

let check_ksafety ~k alloc =
  if k <= 0 then []
  else begin
    let workload = Allocation.workload alloc in
    let n = Allocation.num_backends alloc in
    let class_diags =
      List.filter_map
        (fun (c : Query_class.t) ->
          let replicas = Ksafety.class_replica_count alloc c in
          if replicas < k + 1 then
            Some
              (D.error ~code:"ALC009" ~subject:(class_subject c)
                 ~data:[ ("replicas", D.Int replicas); ("k", D.Int k) ]
                 "served by %d backend%s, fewer than the k+1 = %d required"
                 replicas
                 (if replicas = 1 then "" else "s")
                 (k + 1))
          else None)
        (Workload.all_classes workload)
    in
    let held = Array.init n (Allocation.fragments_of alloc) in
    let fragment_diags =
      Fragment.Set.fold
        (fun f acc ->
          let copies = ref 0 in
          for b = 0 to n - 1 do
            if Fragment.Set.mem f held.(b) then incr copies
          done;
          if !copies < k + 1 then
            D.warning ~code:"ALC010" ~subject:("fragment " ^ Fragment.name f)
              ~data:[ ("copies", D.Int !copies); ("k", D.Int k) ]
              "stored %d time%s, fewer than k+1 = %d (Eq. 46)" !copies
              (if !copies = 1 then "" else "s")
              (k + 1)
            :: acc
          else acc)
        (Workload.fragments workload) []
    in
    class_diags @ fragment_diags
  end

(* Domain spread: with a topology, k-safety must also hold against
   correlated failures — replicas of a class may not stack in fewer zones
   than min(k+1, zones). *)
let check_topology ?topology ~k alloc =
  match topology with
  | None -> []
  | Some t ->
      let n = Allocation.num_backends alloc in
      if Topology.num_backends t <> n then
        [
          D.error ~code:"ALC014" ~subject:"topology"
            ~data:
              [
                ("topology_backends", D.Int (Topology.num_backends t));
                ("backends", D.Int n);
              ]
            "covers %d backends but the allocation has %d"
            (Topology.num_backends t) n;
        ]
      else if k <= 0 then []
      else begin
        let required = min (k + 1) (Topology.zones t) in
        List.filter_map
          (fun (c : Query_class.t) ->
            let spread = Ksafety.class_zone_spread ~topology:t alloc c in
            if spread < required then
              Some
                (D.error ~code:"ALC013" ~subject:(class_subject c)
                   ~data:
                     [
                       ("zones_spanned", D.Int spread);
                       ("required", D.Int required);
                       ("replicas",
                        D.Int (Ksafety.class_replica_count alloc c));
                     ]
                   "replicas span %d fault domain%s, fewer than the \
                    min(k+1, zones) = %d required — a single zone outage \
                    takes out every copy"
                   spread
                   (if spread = 1 then "" else "s")
                   required)
            else None)
          (Workload.all_classes (Allocation.workload alloc))
      end

(* Lint: storage nothing assigned on the backend needs, and idle backends. *)
let check_lints ~k alloc =
  let workload = Allocation.workload alloc in
  let n = Allocation.num_backends alloc in
  let out = ref [] in
  for b = 0 to n - 1 do
    let frs = Allocation.fragments_of alloc b in
    let load = Allocation.assigned_load alloc b in
    if Fragment.Set.is_empty frs && load <= Eps.assign then
      out :=
        D.info ~code:"ALC012" ~subject:(backend_subject alloc b)
          "idle: stores nothing and serves no load"
        :: !out
    else if k = 0 then begin
      let needed =
        List.fold_left
          (fun acc (c : Query_class.t) ->
            if Allocation.get_assign alloc b c > Eps.assign then
              Fragment.Set.union acc c.Query_class.fragments
            else acc)
          Fragment.Set.empty
          (Workload.all_classes workload)
      in
      Fragment.Set.iter
        (fun f ->
          if not (Fragment.Set.mem f needed) then
            out :=
              D.warning ~code:"ALC011" ~subject:(backend_subject alloc b)
                ~data:
                  [
                    ("fragment", D.Str (Fragment.name f));
                    ("size_mb", D.Num f.Fragment.size);
                  ]
                "stores %s (%.1f MB) which no class assigned here references \
                 (prune would drop it)"
                (Fragment.name f) f.Fragment.size
            :: !out)
        (Fragment.Set.diff frs needed)
    end
  done;
  !out

(* ------------------------------------------------------------------ *)
(* Dense-path checks: the same Eq. 8-11 / 14-15 scans as above, ported  *)
(* to the flat representation so verifying a 10⁵+-fragment allocation   *)
(* is a few indexed passes, not the bottleneck.  Diagnostics are capped *)
(* per code — a systematically broken massive instance reports the      *)
(* first hits plus a count, not a million records.                      *)
(* ------------------------------------------------------------------ *)

let dense_cap = 100

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
    if !c <= dense_cap then t.diags <- d :: t.diags

  let result t =
    let overflow =
      Hashtbl.fold
        (fun code c acc ->
          if !c > dense_cap then
            D.warning ~code:"ALC015" ~subject:("code " ^ code)
              ~data:[ ("code", D.Str code); ("total", D.Int !c) ]
              "%d diagnostics of %s; showing the first %d" !c code dense_cap
            :: acc
          else acc)
        t.counts []
    in
    List.rev_append t.diags overflow
end

let check_dense ?(k = 0) ?max_scale ?topology (t : Cdbs_core.Dense.t) =
  let open Cdbs_core.Dense in
  let inst = t.inst in
  let out = Capped.create () in
  let add = Capped.add out in
  let n = num_backends t in
  let b_subject b = "backend " ^ inst.backends.(b).Backend.name in
  let c_subject c = "class " ^ inst.class_id.(c) in
  (* Eq. 8 plus sign sanity (ALC001/ALC002), Eq. 10 pinning (ALC004/005),
     in one pass over the assignment matrix. *)
  for b = 0 to n - 1 do
    if t.b_alive.(b) then begin
      let row = t.assign.(b) in
      for c = 0 to inst.n_classes - 1 do
        if t.c_alive.(c) then begin
          let w = row.(c) in
          if w < -.Eps.assign then
            add
              (D.error ~code:"ALC001" ~subject:(c_subject c)
                 ~data:[ ("backend", D.Int b); ("assign", D.Num w) ]
                 "negative assignment %g on %s" w (b_subject b));
          if w > Eps.assign && not (holds t b c) then
            add
              (D.error ~code:"ALC002" ~subject:(c_subject c)
                 ~data:[ ("backend", D.Int b); ("assign", D.Num w) ]
                 "assigned %.4f on %s which lacks some of its fragments (Eq. 8)"
                 w (b_subject b))
        end
      done
    end
  done;
  (* Eq. 9 (ALC003): read classes fully distributed. *)
  Array.iter
    (fun c ->
      if t.c_alive.(c) then begin
        let total = ref 0. in
        for b = 0 to n - 1 do
          if t.b_alive.(b) then total := !total +. t.assign.(b).(c)
        done;
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
            let a = t.assign.(b).(u) in
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
  (* Eqs. 14-15 (ALC007). *)
  (match max_scale with
  | None -> ()
  | Some bound ->
      let s = scale t in
      if s > bound +. Eps.weight then
        add
          (D.error ~code:"ALC007" ~subject:"allocation"
             ~data:[ ("scale", D.Num s); ("max_scale", D.Num bound) ]
             "scale factor %.4f exceeds the bound %.4f (Eqs. 14-15)" s bound));
  (* k-safety (ALC009) and domain spread (ALC013) for alive classes. *)
  if k > 0 then begin
    let alive_backends = ref 0 in
    for b = 0 to n - 1 do
      if t.b_alive.(b) then incr alive_backends
    done;
    let want = min (k + 1) !alive_backends in
    let zones_alive, zone_of =
      match topology with
      | None -> (0, fun _ -> 0)
      | Some topo ->
          let seen = Array.make (Topology.zones topo) false in
          for b = 0 to n - 1 do
            if t.b_alive.(b) then seen.(Topology.zone_of topo b) <- true
          done;
          ( Array.fold_left (fun acc s -> if s then acc + 1 else acc) 0 seen,
            fun b -> Topology.zone_of topo b )
    in
    let zone_seen =
      match topology with
      | None -> [||]
      | Some topo -> Array.make (Topology.zones topo) false
    in
    for c = 0 to inst.n_classes - 1 do
      if t.c_alive.(c) then begin
        Array.fill zone_seen 0 (Array.length zone_seen) false;
        let replicas = ref 0 in
        for b = 0 to n - 1 do
          if t.b_alive.(b) && holds t b c then begin
            incr replicas;
            if topology <> None then zone_seen.(zone_of b) <- true
          end
        done;
        if !replicas < want then
          add
            (D.error ~code:"ALC009" ~subject:(c_subject c)
               ~data:[ ("replicas", D.Int !replicas); ("k", D.Int k) ]
               "served by %d backend%s, fewer than the k+1 = %d required"
               !replicas
               (if !replicas = 1 then "" else "s")
               (k + 1));
        if topology <> None then begin
          let spread =
            Array.fold_left
              (fun acc s -> if s then acc + 1 else acc)
              0 zone_seen
          in
          let required = min (k + 1) zones_alive in
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
                 spread
                 (if spread = 1 then "" else "s")
                 required)
        end
      end
    done
  end;
  (* Lints (ALC011/ALC012): dead storage and idle backends. *)
  let scratch = Bytes.make ((inst.n_frags + 7) / 8) '\000' in
  for b = 0 to n - 1 do
    if t.b_alive.(b) then begin
      if t.stored.(b) <= Eps.assign && t.load.(b) <= Eps.assign then
        add
          (D.info ~code:"ALC012" ~subject:(b_subject b)
             "idle: stores nothing and serves no load")
      else if k = 0 then begin
        Bytes.fill scratch 0 (Bytes.length scratch) '\000';
        for c = 0 to inst.n_classes - 1 do
          if t.c_alive.(c) && t.assign.(b).(c) > Eps.assign then
            iter_footprint inst c (fun f -> Bits.set scratch f)
        done;
        Bits.iter
          (fun f ->
            if not (Bits.get scratch f) then
              add
                (D.warning ~code:"ALC011" ~subject:(b_subject b)
                   ~data:
                     [
                       ("fragment", D.Int f);
                       ("size_mb", D.Num inst.frag_size.(f));
                     ]
                   "stores fragment #%d (%.1f MB) which no class assigned \
                    here references (prune would drop it)"
                   f
                   inst.frag_size.(f)))
          t.held.(b)
      end
    end
  done;
  Capped.result out

let check ?(k = 0) ?max_scale ?storage_limit_mb ?topology alloc =
  check_locality alloc
  @ check_read_conservation alloc
  @ check_updates alloc
  @ check_scale ?max_scale alloc
  @ check_storage ?storage_limit_mb alloc
  @ check_ksafety ~k alloc
  @ check_topology ?topology ~k alloc
  @ check_lints ~k alloc

let check_exn ?k ?topology ~context alloc =
  match Diagnostic.errors (check ?k ?topology alloc) with
  | [] -> ()
  | errs ->
      raise
        (Invariants.Violation
           (context ^ ": "
           ^ String.concat "; "
               (List.map (fun d -> Fmt.str "%a" Diagnostic.pp d) errs)))
