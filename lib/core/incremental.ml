module Vec = Cdbs_util.Vec
module Bits = Dense.Bits

(* ------------------------------------------------------------------ *)
(* Delta taxonomy                                                      *)
(* ------------------------------------------------------------------ *)

type delta =
  | Reweight of { cls : int; weight : float }
  | Add_read of { id : string; weight : float; frags : int array }
  | Add_update of { id : string; weight : float; frags : int array }
  | Retire_class of { cls : int }
  | Add_backend of { name : string; capacity : float }
  | Retire_backend of { backend : int }

type stats = {
  touched_classes : int;
  moved_fragments : int;
  moved_mb : float;
  dropped_fragments : int;
  dropped_mb : float;
  rebalance_fragments : int;
  moves : (int * int * int option) array;
}

(* ------------------------------------------------------------------ *)
(* Instance extension                                                  *)
(* ------------------------------------------------------------------ *)

(* Extend the instance with the delta: classes appended, weights
   overridden, backends appended, capacity shares renormalized over the
   backends that remain alive.

   The class arrays are appended IN PLACE whenever this instance still
   owns its capacity slack (see [Dense.class_capacity] / [ext_used]):
   appends touch only indices >= n_classes, which states sharing the
   base instance never read, and reweights are within-bounds writes the
   (consumed) input is expected to observe.  When the slack is spent or
   exhausted the arrays are copied with geometric growth.  The
   fragment->update CSR is rebuilt only when update classes were added;
   retired classes stay in it and are gated by [c_alive] at settle
   time, exactly as before the delta. *)
let extend_instance (inst : Dense.instance) ~reweights ~added ~added_backends
    ~alive_caps =
  let open Dense in
  let nf = inst.n_frags in
  let nc = inst.n_classes and n = Array.length inst.backends in
  let nc' = nc + Array.length added in
  let n' = n + Array.length added_backends in
  let footprints =
    Array.map (fun (_, _, _, fp) -> sorted_footprint nf fp) added
  in
  let extra_foot =
    Array.fold_left (fun acc fp -> acc + Array.length fp) 0 footprints
  in
  let need_foot = inst.class_off.(nc) + extra_foot in
  let in_place =
    (not !(inst.ext_used))
    && nc' <= Array.length inst.class_weight
    && nc' <= Array.length inst.class_id
    && nc' <= Array.length inst.class_size
    && nc' < Array.length inst.class_off
    && nc' <= Bytes.length inst.kind
    && need_foot <= Array.length inst.class_frag
  in
  let kind, class_id, class_weight, class_off, class_frag, class_size =
    if in_place then begin
      inst.ext_used := true;
      (* Added-class slots (indices >= nc) are invisible to the old
         instance, so those arrays may be reused — but a reweight writes
         to a slot the old instance still reads.  [Dense.copy] shares
         the instance, so mutating it here would corrupt the copy's
         siblings (the pre-delta allocation the caller kept): reweights
         get a fresh weight array. *)
      let class_weight =
        if reweights = [] then inst.class_weight
        else Array.copy inst.class_weight
      in
      ( inst.kind, inst.class_id, class_weight, inst.class_off,
        inst.class_frag, inst.class_size )
    end
    else begin
      let cap = max (class_capacity nc') (2 * Array.length inst.class_weight) in
      let kind = Bytes.make cap '\000' in
      Bytes.blit inst.kind 0 kind 0 nc;
      let class_id = Array.make cap "" in
      Array.blit inst.class_id 0 class_id 0 nc;
      let class_weight = Array.make cap 0. in
      Array.blit inst.class_weight 0 class_weight 0 nc;
      let class_off = Array.make (cap + 1) 0 in
      Array.blit inst.class_off 0 class_off 0 (nc + 1);
      let fcap =
        max
          (need_foot + (need_foot lsr 3) + 256)
          (2 * Array.length inst.class_frag)
      in
      let class_frag = Array.make fcap 0 in
      Array.blit inst.class_frag 0 class_frag 0 inst.class_off.(nc);
      let class_size = Array.make cap 0. in
      Array.blit inst.class_size 0 class_size 0 nc;
      (kind, class_id, class_weight, class_off, class_frag, class_size)
    end
  in
  List.iter (fun (c, _w0, w1) -> class_weight.(c) <- w1) reweights;
  Array.iteri
    (fun i (id, upd, w, _) ->
      let c = nc + i in
      class_id.(c) <- id;
      class_weight.(c) <- w;
      Bytes.set kind c (if upd then '\001' else '\000');
      class_off.(c + 1) <- class_off.(c) + Array.length footprints.(i);
      let base = class_off.(c) in
      Array.iteri (fun j f -> class_frag.(base + j) <- f) footprints.(i);
      class_size.(c) <-
        Array.fold_left (fun acc f -> acc +. inst.frag_size.(f)) 0.
          footprints.(i))
    added;
  let new_reads = Vec.create () and new_upds = Vec.create () in
  Array.iteri
    (fun i (_, upd, _, _) ->
      if upd then Vec.push new_upds (nc + i) else Vec.push new_reads (nc + i))
    added;
  let read_idx =
    if Vec.length new_reads = 0 then inst.read_idx
    else Array.append inst.read_idx (Vec.to_array new_reads)
  and upd_idx =
    if Vec.length new_upds = 0 then inst.upd_idx
    else Array.append inst.upd_idx (Vec.to_array new_upds)
  in
  let backends = Array.make n' inst.backends.(0) in
  Array.blit inst.backends 0 backends 0 n;
  Array.iteri
    (fun j (name, _) ->
      backends.(n + j) <- { Backend.name; load = 0. })
    added_backends;
  (* Renormalize capacity shares over alive backends (retired ones keep
     their stale share; it is never read). *)
  let loads = Array.make n' 0. in
  Array.blit inst.loads 0 loads 0 n;
  let mean_cap =
    let total = ref 0. and cnt = ref 0 in
    Array.iter
      (fun cap ->
        if cap > 0. then begin
          total := !total +. cap;
          incr cnt
        end)
      alive_caps;
    if !cnt = 0 then 1. else !total /. float_of_int !cnt
  in
  let caps = Array.make n' 0. in
  Array.blit alive_caps 0 caps 0 n;
  Array.iteri
    (fun j (_, capacity) -> caps.(n + j) <- capacity *. mean_cap)
    added_backends;
  let total_cap = Array.fold_left ( +. ) 0. caps in
  if total_cap > 0. then
    Array.iteri
      (fun b cap -> if cap > 0. then loads.(b) <- cap /. total_cap)
      caps;
  Array.iteri (fun b l -> backends.(b) <- { backends.(b) with Backend.load = l })
    loads;
  let frag_upd_off, frag_upd =
    if Vec.length new_upds = 0 then (inst.frag_upd_off, inst.frag_upd)
    else update_csr nf ~class_off ~class_frag upd_idx
  in
  {
    inst with
    backends;
    loads;
    n_classes = nc';
    kind;
    class_id;
    class_weight;
    class_off;
    class_frag;
    class_size;
    read_idx;
    upd_idx;
    frag_upd_off;
    frag_upd;
    ext_used = ref false;
  }

(* Widen the state onto the extended instance, CONSUMING the input: the
   shares, held bitsets and membership vectors are reused by the result,
   the slack slots for appended classes are reset, and only the small
   per-backend arrays are rebuilt when backends were added (a new backend
   holds no shares, so it needs no class-indexed state).  O(backends +
   appended classes), no O(fragments) or O(classes) copies on the common
   path. *)
let extend_state (t : Dense.t) (inst : Dense.instance) : Dense.t =
  let open Dense in
  let n = Array.length t.inst.backends and nc = t.inst.n_classes in
  let n' = Array.length inst.backends and nc' = inst.n_classes in
  let t =
    if nc' <= class_slots t then t
    else widen_classes t (max (class_capacity nc') (2 * max (class_slots t) nc'))
  in
  (* Appended-class slots get explicit defaults (never rely on the slack
     still holding its creation-time values). *)
  for c = nc to nc' - 1 do
    t.c_alive.(c) <- true;
    t.upd_pins.(c) <- 0;
    iter_shares t c (fun b _ -> set_share t b c 0.)
  done;
  if n' = n then { t with inst }
  else begin
    let b_alive = Array.make n' true in
    Array.blit t.b_alive 0 b_alive 0 n;
    let load = Array.make n' 0. in
    Array.blit t.load 0 load 0 n;
    let stored = Array.make n' 0. in
    Array.blit t.stored 0 stored 0 n;
    {
      t with
      inst;
      b_alive;
      held =
        Array.init n' (fun b ->
            if b < n then t.held.(b) else Bits.create inst.n_frags);
      load;
      stored;
      active =
        Array.init n' (fun b -> if b < n then t.active.(b) else Vec.create ());
      pinned =
        Array.init n' (fun b -> if b < n then t.pinned.(b) else Vec.create ());
    }
  end

(* ------------------------------------------------------------------ *)
(* Repair                                                              *)
(* ------------------------------------------------------------------ *)

let missing_mb (st : Dense.t) b c =
  let acc = ref 0. in
  Dense.iter_footprint st.Dense.inst c (fun f ->
      if not (Bits.get st.Dense.held.(b) f) then
        acc := !acc +. st.Dense.inst.Dense.frag_size.(f));
  !acc

let rel_load (st : Dense.t) b =
  let cap = st.Dense.inst.Dense.loads.(b) in
  if cap <= 0. then infinity else st.Dense.load.(b) /. cap

(* Pick a destination backend for class [c]: alive, outside [exclude],
   missing the least of its data, then least loaded relative to its
   capacity. *)
let best_dest (st : Dense.t) ?(exclude = -1) c =
  let best = ref (-1) and best_key = ref (infinity, infinity) in
  for b = 0 to Dense.num_backends st - 1 do
    if st.Dense.b_alive.(b) && b <> exclude then begin
      let key = (missing_mb st b c, rel_load st b) in
      if key < !best_key then begin
        best := b;
        best_key := key
      end
    end
  done;
  !best

let pin_update (st : Dense.t) b u =
  let open Dense in
  let w = st.inst.class_weight.(u) in
  let old = share st b u in
  if old < w then begin
    set_share st b u w;
    st.load.(b) <- st.load.(b) +. (w -. old);
    if old <= 0. then begin
      Vec.push st.pinned.(b) u;
      st.upd_pins.(u) <- st.upd_pins.(u) + 1
    end
  end;
  ignore (install_class st b u)

let repair ?(k = 0) ?topology ?budget ?(balance = false) (t : Dense.t)
    (deltas : delta list) : Dense.t * stats =
  let open Dense in
  let old_inst = t.inst in
  let old_n = Array.length old_inst.backends in
  (* ---- partition the delta ---------------------------------------- *)
  let reweights = ref [] and added = ref [] and retired_classes = ref [] in
  let added_backends = ref [] and retired_backends = ref [] in
  List.iter
    (function
      | Reweight { cls; weight } ->
          if cls < 0 || cls >= old_inst.n_classes then
            invalid_arg "Incremental.repair: class index out of range";
          if weight < 0. then
            invalid_arg "Incremental.repair: negative weight";
          reweights := (cls, weight) :: !reweights
      | Add_read { id; weight; frags } ->
          added := (id, false, weight, frags) :: !added
      | Add_update { id; weight; frags } ->
          added := (id, true, weight, frags) :: !added
      | Retire_class { cls } ->
          if cls < 0 || cls >= old_inst.n_classes then
            invalid_arg "Incremental.repair: class index out of range";
          retired_classes := cls :: !retired_classes
      | Add_backend { name; capacity } ->
          if capacity <= 0. then
            invalid_arg "Incremental.repair: non-positive capacity";
          added_backends := (name, capacity) :: !added_backends
      | Retire_backend { backend } ->
          if backend < 0 || backend >= old_n then
            invalid_arg "Incremental.repair: backend index out of range";
          retired_backends := backend :: !retired_backends)
    deltas;
  let reweights_raw = List.rev !reweights
  and added = Array.of_list (List.rev !added)
  and retired_classes = List.rev !retired_classes
  and added_backends = Array.of_list (List.rev !added_backends)
  and retired_backends = List.rev !retired_backends in
  (* Deduplicate reweights (last write wins) and capture each class's
     pre-delta weight: scaling a read assignment by w1/w0 must see the
     original weight exactly once, or repeated reweights of one class
     compound. *)
  let reweights =
    let seen = Hashtbl.create 16 in
    List.rev reweights_raw
    |> List.filter (fun (c, _) ->
           if Hashtbl.mem seen c then false
           else begin
             Hashtbl.add seen c ();
             true
           end)
    |> List.rev_map (fun (c, w1) -> (c, old_inst.class_weight.(c), w1))
  in
  (* ---- extended instance + widened (consumed) state ----------------- *)
  let alive_caps =
    Array.mapi
      (fun b cap ->
        if t.b_alive.(b) && not (List.mem b retired_backends) then cap else 0.)
      old_inst.loads
  in
  let inst =
    extend_instance old_inst ~reweights ~added ~added_backends ~alive_caps
  in
  let st = extend_state t inst in
  (* Move accounting under in-place mutation: the held bitset of an old
     backend is snapshotted the first time the repair touches it —
     O(touched backends) copies, not O(backends). *)
  let old_alive = Array.sub st.b_alive 0 old_n in
  let snap : Bytes.t option array = Array.make old_n None in
  let touch_held b =
    if b < old_n && snap.(b) = None then
      snap.(b) <- Some (Bytes.copy st.held.(b))
  in
  let prune_allowed = k <= 0 in
  let touched = Bytes.make inst.n_classes '\000' in
  let touch c = Bytes.set touched c '\001' in
  let rebalance_frags = ref 0 in
  (* ---- 1. reweights ------------------------------------------------ *)
  List.iter
    (fun (c, w0, w1) ->
      touch c;
      if Dense.is_update inst c then
        iter_shares st c (fun b a ->
            if a > 0. then begin
              st.load.(b) <- st.load.(b) +. (w1 -. a);
              set_share st b c w1
            end)
      else begin
        let to_prune = ref [] in
        if w0 > Eps.tiny then
          iter_shares st c (fun b a ->
              if a > 0. then begin
                let a' = a *. (w1 /. w0) in
                set_share st b c a';
                st.load.(b) <- st.load.(b) +. (a' -. a);
                if a' <= 0. then to_prune := b :: !to_prune
              end);
        if prune_allowed then
          List.iter
            (fun b ->
              touch_held b;
              prune_backend st b)
            !to_prune;
        if w0 <= Eps.tiny && w1 > Eps.tiny then begin
          (* Was weightless: behaves like a brand-new read class. *)
          let dest = best_dest st c in
          if dest >= 0 then begin
            touch_held dest;
            ignore (install_class st dest c);
            add_assign st dest c w1;
            st.load.(dest) <- st.load.(dest) +. w1
          end
        end
      end)
    reweights;
  (* ---- 2. retired classes ------------------------------------------ *)
  List.iter
    (fun c ->
      touch c;
      st.c_alive.(c) <- false;
      let to_prune = ref [] in
      iter_shares st c (fun b a ->
          if a > 0. then begin
            set_share st b c 0.;
            st.load.(b) <- st.load.(b) -. a;
            if Dense.is_update inst c then
              st.upd_pins.(c) <- max 0 (st.upd_pins.(c) - 1);
            to_prune := b :: !to_prune
          end);
      if prune_allowed then
        List.iter
          (fun b ->
            touch_held b;
            prune_backend st b)
          !to_prune)
    retired_classes;
  (* ---- 3. retired backends ----------------------------------------- *)
  List.iter
    (fun rb ->
      touch_held rb;
      (* Its standby replicas carry no share, so under k-safety every
         alive class it holds in full is re-replicated in step 6. *)
      if k > 0 then
        for c = 0 to inst.n_classes - 1 do
          if st.c_alive.(c) && holds st rb c then touch c
        done;
      (* Reads leave first (to holders when possible), then orphaned
         updates are re-homed, then the node's data is dropped. *)
      Vec.filter_in_place (fun c -> share st rb c > 0.) st.active.(rb);
      Vec.iter
        (fun c ->
          let a = share st rb c in
          if a > 0. && st.c_alive.(c) then begin
            touch c;
            set_share st rb c 0.;
            st.load.(rb) <- st.load.(rb) -. a;
            let dest = best_dest st ~exclude:rb c in
            if dest >= 0 then begin
              touch_held dest;
              ignore (install_class st dest c);
              add_assign st dest c a;
              st.load.(dest) <- st.load.(dest) +. a
            end
          end)
        st.active.(rb);
      Vec.clear st.active.(rb);
      Vec.iter
        (fun u ->
          let a = share st rb u in
          if a > 0. then begin
            touch u;
            st.load.(rb) <- st.load.(rb) -. a;
            set_share st rb u 0.;
            st.upd_pins.(u) <- st.upd_pins.(u) - 1;
            if st.upd_pins.(u) = 0 && st.c_alive.(u) then begin
              let dest = best_dest st ~exclude:rb u in
              if dest >= 0 then begin
                touch_held dest;
                pin_update st dest u
              end
            end
          end)
        st.pinned.(rb);
      Vec.clear st.pinned.(rb);
      Bits.reset st.held.(rb);
      st.stored.(rb) <- 0.;
      st.load.(rb) <- 0.;
      st.b_alive.(rb) <- false)
    retired_backends;
  (* ---- 4. added classes -------------------------------------------- *)
  Array.iteri
    (fun i (_, upd, w, _) ->
      let c = old_inst.n_classes + i in
      touch c;
      if upd then begin
        let pinned_somewhere = ref false in
        for b = 0 to num_backends st - 1 do
          if st.b_alive.(b) && overlaps st b c then begin
            touch_held b;
            pin_update st b c;
            pinned_somewhere := true
          end
        done;
        if not !pinned_somewhere then begin
          let dest = best_dest st c in
          if dest >= 0 then begin
            touch_held dest;
            pin_update st dest c
          end
        end
      end
      else begin
        let dest = best_dest st c in
        if dest >= 0 then begin
          touch_held dest;
          ignore (install_class st dest c);
          add_assign st dest c w;
          st.load.(dest) <- st.load.(dest) +. w
        end
      end)
    added;
  (* ---- 5. added backends: budget-bounded rebalance ----------------- *)
  let budget_left =
    ref (match budget with Some b -> b | None -> max_int)
  in
  Array.iteri
    (fun j _ ->
      let nb = old_n + j in
      let total_load = ref 0. and total_cap = ref 0. in
      for b = 0 to num_backends st - 1 do
        if st.b_alive.(b) then begin
          total_load := !total_load +. st.load.(b);
          total_cap := !total_cap +. inst.loads.(b)
        end
      done;
      let target =
        if !total_cap <= 0. then 0.
        else !total_load /. !total_cap *. inst.loads.(nb)
      in
      let progress = ref true in
      while !progress && st.load.(nb) < target -. Eps.assign && !budget_left > 0
      do
        progress := false;
        (* Heaviest alive donor, relative to capacity. *)
        let donor = ref (-1) and donor_r = ref (rel_load st nb) in
        for b = 0 to num_backends st - 1 do
          if st.b_alive.(b) && b <> nb && rel_load st b > !donor_r then begin
            donor := b;
            donor_r := rel_load st b
          end
        done;
        if !donor >= 0 then begin
          let d = !donor in
          Vec.filter_in_place (fun c -> share st d c > 0.) st.active.(d);
          (* Cheapest-to-move read class: most weight per missing MB,
             within the remaining fragment budget. *)
          let best_c = ref (-1) and best_ratio = ref neg_infinity in
          Vec.iter
            (fun c ->
              if st.c_alive.(c) then begin
                let miss = ref 0 in
                Dense.iter_footprint inst c (fun f ->
                    if not (Bits.get st.held.(nb) f) then incr miss);
                if !miss <= !budget_left then begin
                  let ratio = share st d c /. (missing_mb st nb c +. 1e-9) in
                  if ratio > !best_ratio then begin
                    best_ratio := ratio;
                    best_c := c
                  end
                end
              end)
            st.active.(d);
          if !best_c >= 0 then begin
            let c = !best_c in
            let miss = ref 0 in
            Dense.iter_footprint inst c (fun f ->
                if not (Bits.get st.held.(nb) f) then incr miss);
            let a = share st d c in
            let amount = min a (target -. st.load.(nb)) in
            if amount > Eps.assign then begin
              touch c;
              budget_left := !budget_left - !miss;
              rebalance_frags := !rebalance_frags + !miss;
              set_share st d c (a -. amount);
              st.load.(d) <- st.load.(d) -. amount;
              ignore (install_class st nb c);
              add_assign st nb c amount;
              st.load.(nb) <- st.load.(nb) +. amount;
              if prune_allowed && share st d c <= 0. then begin
                touch_held d;
                prune_backend st d
              end;
              progress := true
            end
          end
        end
      done)
    added_backends;
  (* ---- 5b. optional global balance pass ---------------------------- *)
  (* With [balance], shift read weight from the most-loaded alive backend
     to the least-loaded one — installing the missing fragments, within
     the remaining fragment budget — until relative loads are within 5 %
     of each other, the budget runs dry, or no admissible class remains.
     A drift-triggered [Reweight] rescales in place and moves no data, so
     a workload shift concentrated on a hot class's few replicas would
     stay concentrated; this pass is what turns the reweight into extra
     replicas of the hot classes on underloaded backends. *)
  if balance then begin
    let guard = ref (4 * (inst.n_classes + num_backends st)) in
    let continue_ = ref true in
    while !continue_ && !budget_left > 0 && !guard > 0 do
      decr guard;
      continue_ := false;
      let donor = ref (-1) and donor_r = ref neg_infinity in
      let recv = ref (-1) and recv_r = ref infinity in
      for b = 0 to num_backends st - 1 do
        if st.b_alive.(b) && inst.loads.(b) > 0. then begin
          let r = rel_load st b in
          if r > !donor_r then begin
            donor := b;
            donor_r := r
          end;
          if r < !recv_r then begin
            recv := b;
            recv_r := r
          end
        end
      done;
      if
        !donor >= 0 && !recv >= 0 && !donor <> !recv
        && !donor_r > (!recv_r *. 1.05) +. Eps.assign
      then begin
        let d = !donor and nb = !recv in
        Vec.filter_in_place (fun c -> share st d c > 0.) st.active.(d);
        (* The pairwise equalizing transfer: enough weight that both
           ends meet at the same relative load, capped per class by what
           the donor actually assigns to it. *)
        let cap_d = inst.loads.(d) and cap_n = inst.loads.(nb) in
        let equalize =
          (!donor_r -. !recv_r) /. ((1. /. cap_d) +. (1. /. cap_n))
        in
        (* Pick the class moving the most load, tie-broken by fewer
           missing fragments.  NOT load-per-missing-byte (the new-backend
           fill's key): that prefers zero-copy shifts of already-shared
           classes, which rebalance the model but grow no new replicas —
           the entire point of this pass is to install the overloaded
           (drifted-hot) classes on the underloaded backends. *)
        let best_c = ref (-1) and best_amt = ref 0. in
        let best_miss = ref max_int in
        Vec.iter
          (fun c ->
            if st.c_alive.(c) then begin
              let miss = ref 0 in
              Dense.iter_footprint inst c (fun f ->
                  if not (Bits.get st.held.(nb) f) then incr miss);
              if !miss <= !budget_left then begin
                let amt = min (share st d c) equalize in
                if
                  amt > !best_amt +. Eps.assign
                  || (amt > !best_amt -. Eps.assign && !miss < !best_miss)
                then begin
                  best_amt := amt;
                  best_miss := !miss;
                  best_c := c
                end
              end
            end)
          st.active.(d);
        if !best_c >= 0 then begin
          let c = !best_c in
          let miss = ref !best_miss in
          let amount = !best_amt in
          if amount > Eps.assign then begin
            touch c;
            touch_held nb;
            budget_left := !budget_left - !miss;
            rebalance_frags := !rebalance_frags + !miss;
            let a = share st d c in
            set_share st d c (a -. amount);
            st.load.(d) <- st.load.(d) -. amount;
            ignore (install_class st nb c);
            add_assign st nb c amount;
            st.load.(nb) <- st.load.(nb) +. amount;
            if prune_allowed && share st d c <= 0. then begin
              touch_held d;
              prune_backend st d
            end;
            continue_ := true
          end
        end
      end
    done
  end;
  (* ---- 6. k-safety and spread for the touched cohort --------------- *)
  if k > 0 then
    Ksafety.replicate ?topology ~on_write:touch_held
      ~only:(fun c -> Bytes.get touched c = '\001')
      ~k st;
  refresh st;
  (* ---- stats: bitset diff against the snapshots -------------------- *)
  let moves = Vec.create () in
  let moved = ref 0 and moved_mb = ref 0. in
  let dropped = ref 0 and dropped_mb = ref 0. in
  let old_held b = match snap.(b) with Some h -> h | None -> st.held.(b) in
  let source_of f =
    let rec go b =
      if b >= old_n then None
      else if old_alive.(b) && Bits.get (old_held b) f then Some b
      else go (b + 1)
    in
    go 0
  in
  for b = 0 to num_backends st - 1 do
    if st.b_alive.(b) then begin
      if b >= old_n then
        Bits.iter
          (fun f ->
            incr moved;
            moved_mb := !moved_mb +. inst.frag_size.(f);
            Vec.push moves (f, b, source_of f))
          st.held.(b)
      else
        match snap.(b) with
        | None -> () (* untouched: identical to the input *)
        | Some h ->
            Bits.iter
              (fun f ->
                if not (Bits.get h f) then begin
                  incr moved;
                  moved_mb := !moved_mb +. inst.frag_size.(f);
                  Vec.push moves (f, b, source_of f)
                end)
              st.held.(b)
    end
  done;
  for b = 0 to old_n - 1 do
    if old_alive.(b) then
      match snap.(b) with
      | None -> ()
      | Some h ->
          Bits.iter
            (fun f ->
              if (not st.b_alive.(b)) || not (Bits.get st.held.(b) f) then begin
                incr dropped;
                dropped_mb := !dropped_mb +. old_inst.frag_size.(f)
              end)
            h
  done;
  let touched_classes = ref 0 in
  Bytes.iter (fun c -> if c = '\001' then incr touched_classes) touched;
  ( st,
    {
      touched_classes = !touched_classes;
      moved_fragments = !moved;
      moved_mb = !moved_mb;
      dropped_fragments = !dropped;
      dropped_mb = !dropped_mb;
      rebalance_fragments = !rebalance_frags;
      moves = Vec.to_array moves;
    } )

(* ------------------------------------------------------------------ *)
(* Random deltas (benchmarks, property tests)                          *)
(* ------------------------------------------------------------------ *)

let random_delta ~rng ?(frac = 0.01) (t : Dense.t) =
  let open Dense in
  let module Rng = Cdbs_util.Rng in
  let inst = t.inst in
  let n_changes =
    max 1 (int_of_float (frac *. float_of_int inst.n_classes))
  in
  (* Each added read is named after the class index it will take, so ids
     stay unique across chained repairs. *)
  let next_class = ref inst.n_classes in
  List.init n_changes (fun _ ->
      match Rng.int rng 4 with
      | 0 | 1 ->
          (* weight shift on a random alive class *)
          let c =
            let c0 = Rng.int rng inst.n_classes in
            let rec find c tries =
              if tries = 0 || t.c_alive.(c) then c
              else find ((c + 1) mod inst.n_classes) (tries - 1)
            in
            find c0 inst.n_classes
          in
          let w = inst.class_weight.(c) *. (0.5 +. Rng.float rng 1.0) in
          Reweight { cls = c; weight = w }
      | 2 ->
          let span = 1 + Rng.int rng (min 6 (max 1 inst.n_frags)) in
          let span = min span inst.n_frags in
          let start = Rng.int rng (inst.n_frags - span + 1) in
          let c = !next_class in
          incr next_class;
          Add_read
            {
              id = Printf.sprintf "q+%d" c;
              weight = 0.2 /. float_of_int (max 1 inst.n_classes);
              frags = Array.init span (fun j -> start + j);
            }
      | _ ->
          let c = Rng.int rng inst.n_classes in
          if t.c_alive.(c) then Retire_class { cls = c }
          else Reweight { cls = c; weight = inst.class_weight.(c) })
