module Rng = Cdbs_util.Rng
module Vec = Cdbs_util.Vec
module Bits = Cdbs_util.Bits

let eps = Eps.assign

(* ------------------------------------------------------------------ *)
(* Compiled instance                                                   *)
(* ------------------------------------------------------------------ *)

type class_spec = {
  cs_id : string;
  cs_update : bool;
  cs_weight : float;
  cs_frags : int array;
}

type instance = {
  backends : Backend.t array;
  loads : float array;
  frag_size : float array;
  frags : Fragment.t array option;
  n_frags : int;
  n_classes : int;
  kind : Bytes.t;  (* '\000' read, '\001' update *)
  class_id : string array;
  class_weight : float array;
  class_off : int array;
  class_frag : int array;
  class_size : float array;
  read_idx : int array;
  upd_idx : int array;
  frag_upd_off : int array;
  frag_upd : int array;
  ext_used : bool ref;
}

(* Physical capacity of the class-indexed arrays: ~12.5% slack plus a
   constant, so Incremental.extend_instance can append a small delta in
   place (indices >= n_classes, invisible to states sharing the base
   instance) instead of copying O(classes) arrays.  [ext_used] is the
   one-shot claim on that slack: the first in-place extension of an
   instance takes it; a second extension of the same base must copy. *)
let class_capacity nc = nc + (nc lsr 3) + 16

let is_update inst c = Bytes.get inst.kind c = '\001'

let iter_footprint inst c f =
  for k = inst.class_off.(c) to inst.class_off.(c + 1) - 1 do
    f inst.class_frag.(k)
  done

let sorted_footprint nf frags =
  let fs = Array.copy frags in
  Array.sort compare fs;
  (* dedup in place *)
  let keep = ref 0 in
  for i = 0 to Array.length fs - 1 do
    if fs.(i) < 0 || fs.(i) >= nf then
      invalid_arg "Dense: fragment index out of range";
    if !keep = 0 || fs.(!keep - 1) <> fs.(i) then begin
      fs.(!keep) <- fs.(i);
      incr keep
    end
  done;
  Array.sub fs 0 !keep

(* Counting sort of the update classes' footprints by fragment. *)
let update_csr nf ~class_off ~class_frag upd_idx =
  let off = Array.make (nf + 1) 0 in
  Array.iter
    (fun u ->
      for k = class_off.(u) to class_off.(u + 1) - 1 do
        let f = class_frag.(k) in
        off.(f + 1) <- off.(f + 1) + 1
      done)
    upd_idx;
  for f = 0 to nf - 1 do
    off.(f + 1) <- off.(f + 1) + off.(f)
  done;
  let fu = Array.make off.(nf) 0 in
  let cursor = Array.copy off in
  Array.iter
    (fun u ->
      for k = class_off.(u) to class_off.(u + 1) - 1 do
        let f = class_frag.(k) in
        fu.(cursor.(f)) <- u;
        cursor.(f) <- cursor.(f) + 1
      done)
    upd_idx;
  (off, fu)

let make_instance ?frags ~backends ~frag_size specs =
  let nf = Array.length frag_size in
  let nc = Array.length specs in
  (match frags with
  | Some a when Array.length a <> nf ->
      invalid_arg "Dense.make_instance: frags/frag_size length mismatch"
  | _ -> ());
  let cap = class_capacity nc in
  let kind = Bytes.make cap '\000' in
  let class_id = Array.make cap "" in
  let class_weight = Array.make cap 0. in
  let class_off = Array.make (cap + 1) 0 in
  let footprints = Array.map (fun s -> sorted_footprint nf s.cs_frags) specs in
  Array.iteri
    (fun c s ->
      if s.cs_weight < 0. then
        invalid_arg "Dense.make_instance: negative class weight";
      if s.cs_update then Bytes.set kind c '\001';
      class_id.(c) <- s.cs_id;
      class_weight.(c) <- s.cs_weight;
      class_off.(c + 1) <- class_off.(c) + Array.length footprints.(c))
    specs;
  let nfoot = class_off.(nc) in
  let class_frag = Array.make (nfoot + (nfoot lsr 3) + 256) 0 in
  let class_size = Array.make cap 0. in
  Array.iteri
    (fun c fp ->
      let base = class_off.(c) in
      Array.iteri (fun i f -> class_frag.(base + i) <- f) fp;
      class_size.(c) <-
        Array.fold_left (fun acc f -> acc +. frag_size.(f)) 0. fp)
    footprints;
  let read_idx = Vec.create () and upd_idx = Vec.create () in
  for c = 0 to nc - 1 do
    if Bytes.get kind c = '\001' then Vec.push upd_idx c
    else Vec.push read_idx c
  done;
  let read_idx = Vec.to_array read_idx and upd_idx = Vec.to_array upd_idx in
  let frag_upd_off, frag_upd = update_csr nf ~class_off ~class_frag upd_idx in
  {
    backends;
    loads = Array.map (fun b -> b.Backend.load) backends;
    frag_size;
    frags;
    n_frags = nf;
    n_classes = nc;
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

(* ------------------------------------------------------------------ *)
(* Allocation state                                                    *)
(* ------------------------------------------------------------------ *)

(* The assignment, per class slot: the class's non-zero shares as one
   float array of (backend, share) pairs in ascending backend order,
   [|b0; w0; b1; w1; ...|], each backend index stored as a float.  A
   class's array is never written once built: a write replaces it, so a
   copy of the state shares every class it does not write, and no domain
   ever writes an array another one reads.  Float arrays also keep the
   pairs out of the major GC's scan. *)
type shares = float array array

type t = {
  inst : instance;
  b_alive : bool array;
  c_alive : bool array;
  held : Bits.t array;
  shares : shares;
  load : float array;
  stored : float array;
  upd_pins : int array;
  active : int Vec.t array;
  pinned : int Vec.t array;
  scratch_bits : Bits.t;
  scratch_stack : int Vec.t;
}

let num_backends t = Array.length t.inst.backends
let class_slots t = Array.length t.shares

(* Index in [a] of backend [b]'s pair, or of the first pair past it. *)
let seek a b =
  let fb = float_of_int b and i = ref 0 in
  while !i < Array.length a && a.(!i) < fb do
    i := !i + 2
  done;
  !i

let share t b c =
  let a = t.shares.(c) in
  let i = seek a b in
  if i < Array.length a && a.(i) = float_of_int b then a.(i + 1) else 0.

let set_share t b c w =
  let a = t.shares.(c) in
  let len = Array.length a and i = seek a b in
  let present = i < len && a.(i) = float_of_int b in
  if w = 0. then begin
    if present then begin
      let a' = Array.make (len - 2) 0. in
      Array.blit a 0 a' 0 i;
      Array.blit a (i + 2) a' i (len - i - 2);
      t.shares.(c) <- a'
    end
  end
  else if present then begin
    let a' = Array.copy a in
    a'.(i + 1) <- w;
    t.shares.(c) <- a'
  end
  else begin
    let a' = Array.make (len + 2) 0. in
    Array.blit a 0 a' 0 i;
    a'.(i) <- float_of_int b;
    a'.(i + 1) <- w;
    Array.blit a i a' (i + 2) (len - i);
    t.shares.(c) <- a'
  end

let iter_shares t c f =
  let a = t.shares.(c) in
  for k = 0 to (Array.length a / 2) - 1 do
    f (int_of_float a.(2 * k)) a.((2 * k) + 1)
  done

let create inst =
  let n = Array.length inst.backends in
  (* Class-indexed state arrays mirror the instance's physical capacity
     so an in-place instance extension fits the state too. *)
  let cap = max inst.n_classes (Array.length inst.class_weight) in
  {
    inst;
    b_alive = Array.make n true;
    c_alive = Array.make cap true;
    held = Array.init n (fun _ -> Bits.create inst.n_frags);
    shares = Array.make cap [||];
    load = Array.make n 0.;
    stored = Array.make n 0.;
    upd_pins = Array.make cap 0;
    active = Array.init n (fun _ -> Vec.create ());
    pinned = Array.init n (fun _ -> Vec.create ());
    scratch_bits = Bits.create inst.n_frags;
    scratch_stack = Vec.create ();
  }

let copy t =
  {
    inst = t.inst;
    b_alive = Array.copy t.b_alive;
    c_alive = Array.copy t.c_alive;
    held = Array.map Bits.copy t.held;
    shares = Array.copy t.shares;
    load = Array.copy t.load;
    stored = Array.copy t.stored;
    upd_pins = Array.copy t.upd_pins;
    active = Array.map Vec.copy t.active;
    pinned = Array.map Vec.copy t.pinned;
    scratch_bits = Bits.create t.inst.n_frags;
    scratch_stack = Vec.create ();
  }

let widen_classes t cap =
  let nc = t.inst.n_classes in
  let c_alive = Array.make cap true in
  Array.blit t.c_alive 0 c_alive 0 nc;
  let upd_pins = Array.make cap 0 in
  Array.blit t.upd_pins 0 upd_pins 0 nc;
  let shares = Array.make cap [||] in
  Array.blit t.shares 0 shares 0 nc;
  { t with c_alive; upd_pins; shares }

let holds t b c =
  let inst = t.inst and h = t.held.(b) in
  let k = ref inst.class_off.(c) and stop = inst.class_off.(c + 1) in
  while !k < stop && Bits.get h inst.class_frag.(!k) do
    incr k
  done;
  !k = stop

let overlaps t b c =
  let inst = t.inst and h = t.held.(b) in
  let k = ref inst.class_off.(c) and stop = inst.class_off.(c + 1) in
  while !k < stop && not (Bits.get h inst.class_frag.(!k)) do
    incr k
  done;
  !k < stop

let scale t =
  let s = ref 1. in
  for b = 0 to num_backends t - 1 do
    if t.b_alive.(b) then begin
      let r = t.load.(b) /. t.inst.loads.(b) in
      if r > !s then s := r
    end
  done;
  !s

let total_stored t =
  let acc = ref 0. in
  for b = 0 to num_backends t - 1 do
    if t.b_alive.(b) then acc := !acc +. t.stored.(b)
  done;
  !acc

let cost t = (scale t, total_stored t)

(* Resync the cached per-backend sums from the ground truth (the shares
   and held bitsets), using the same summation order the legacy
   [Allocation.assigned_load]/[total_stored] use: each backend's load in
   ascending class order.  A zero share adds nothing to a sum that starts
   at +0., so the pass skips them. *)
let refresh t =
  let inst = t.inst in
  Array.fill t.load 0 (num_backends t) 0.;
  for c = 0 to inst.n_classes - 1 do
    iter_shares t c (fun b w -> t.load.(b) <- t.load.(b) +. w)
  done;
  for b = 0 to num_backends t - 1 do
    let st = ref 0. in
    Bits.iter (fun f -> st := !st +. inst.frag_size.(f)) t.held.(b);
    t.stored.(b) <- !st
  done

(* Every cache rebuilt from the shares and bitsets: the sums as [refresh]
   makes them, and per backend its reads ([active]) and updates
   ([pinned]) with a positive share, ascending.  [prune_backend] walks
   [pinned] in that order, so a state that starts from here prunes the
   same way however its shares were written. *)
let rebuild t =
  refresh t;
  Array.iter Vec.clear t.active;
  Array.iter Vec.clear t.pinned;
  Array.fill t.upd_pins 0 (Array.length t.upd_pins) 0;
  for c = 0 to t.inst.n_classes - 1 do
    iter_shares t c (fun b w ->
        if w > 0. then
          if is_update t.inst c then begin
            Vec.push t.pinned.(b) c;
            t.upd_pins.(c) <- t.upd_pins.(c) + 1
          end
          else Vec.push t.active.(b) c)
  done

(* ------------------------------------------------------------------ *)
(* Primitive moves (shared by greedy / memetic / incremental)          *)
(* ------------------------------------------------------------------ *)

(* Install one fragment on [b]; newly-set fragments go on the scratch
   worklist so [settle] can chase the update closure. *)
let install_fragment t b f =
  if not (Bits.get t.held.(b) f) then begin
    Bits.set t.held.(b) f;
    t.stored.(b) <- t.stored.(b) +. t.inst.frag_size.(f);
    Vec.push t.scratch_stack f
  end

(* Drain the worklist: pin every (alive) update class overlapping a newly
   installed fragment, installing its footprint in turn (Eq. 10 fixpoint).
   Returns the update weight newly pinned on [b]. *)
let settle ?on_pin t b =
  let inst = t.inst in
  let added = ref 0. in
  let continue = ref true in
  while !continue do
    match Vec.pop t.scratch_stack with
    | None -> continue := false
    | Some f ->
        for k = inst.frag_upd_off.(f) to inst.frag_upd_off.(f + 1) - 1 do
          let u = inst.frag_upd.(k) in
          let w = inst.class_weight.(u) in
          if t.c_alive.(u) then begin
            let old = share t b u in
            if old < w then begin
              set_share t b u w;
              t.load.(b) <- t.load.(b) +. (w -. old);
              added := !added +. (w -. old);
              if old <= 0. then begin
                Vec.push t.pinned.(b) u;
                t.upd_pins.(u) <- t.upd_pins.(u) + 1
              end;
              (match on_pin with Some g -> g u | None -> ());
              iter_footprint inst u (fun j -> install_fragment t b j)
            end
          end
        done
  done;
  !added

(* Install class [c]'s footprint (and its update closure) on [b]. *)
let install_class t b c =
  iter_footprint t.inst c (fun f -> install_fragment t b f);
  settle t b

let install_fragments t b fs =
  Array.iter (install_fragment t b) fs;
  settle t b

(* Add read assignment, tracking membership in the active vector. *)
let add_assign t b c amount =
  let old = share t b c in
  if old <= 0. && amount > 0. then Vec.push t.active.(b) c;
  set_share t b c (old +. amount)

(* Local prune of one backend: keep only fragments some assigned read
   class here references, re-establish the update closure, and re-home
   update classes the prune orphaned.  Pruning only the backend a move
   changed is enough on a valid state without dead storage: no other
   backend lost a class. *)
let prune_backend t b =
  let inst = t.inst in
  Bits.reset t.scratch_bits;
  Vec.filter_in_place (fun c -> share t b c > 0.) t.active.(b);
  Vec.iter
    (fun c -> iter_footprint inst c (fun f -> Bits.set t.scratch_bits f))
    t.active.(b);
  (* Clear update pinnings on b; remember globally orphaned classes. *)
  let orphans = ref [] in
  Vec.iter
    (fun u ->
      let a = share t b u in
      if a > 0. then begin
        t.load.(b) <- t.load.(b) -. a;
        set_share t b u 0.;
        t.upd_pins.(u) <- t.upd_pins.(u) - 1;
        if t.upd_pins.(u) = 0 then orphans := u :: !orphans
      end)
    t.pinned.(b);
  Vec.clear t.pinned.(b);
  (* held(b) <- needed; rebuild stored; queue kept fragments for re-pin. *)
  Bits.blit ~src:t.scratch_bits ~dst:t.held.(b);
  let st = ref 0. in
  Bits.iter
    (fun f ->
      st := !st +. inst.frag_size.(f);
      Vec.push t.scratch_stack f)
    t.held.(b);
  t.stored.(b) <- !st;
  ignore (settle t b);
  (* Re-home updates that now overlap no backend: [b] was their last
     carrier, so they return to it (Eq. 11). *)
  List.iter
    (fun u ->
      if t.upd_pins.(u) = 0 && t.c_alive.(u) then ignore (install_class t b u))
    !orphans

(* Move [amount] of read class [c] from [b1] to [b2], installing the data
   (and update closure) on [b2] and pruning [b1]. *)
let transfer t c ~b1 ~b2 ~amount =
  let a1 = share t b1 c in
  let amount = min amount a1 in
  if amount > 0. && b1 <> b2 && t.b_alive.(b2) then begin
    set_share t b1 c (a1 -. amount);
    t.load.(b1) <- t.load.(b1) -. amount;
    ignore (install_class t b2 c);
    add_assign t b2 c amount;
    t.load.(b2) <- t.load.(b2) +. amount;
    prune_backend t b1
  end

(* ------------------------------------------------------------------ *)
(* Greedy (paper Algorithm 1)                                          *)
(* ------------------------------------------------------------------ *)

(* C ∪ updates(C) of Eq. 20.  The marks are stamped with a per-call
   counter, so one partial application serves every class.  The loops
   allocate nothing per fragment: [size] accumulates in a float array. *)
let class_closure ?alive inst =
  let umark = Array.make inst.n_classes (-1) in
  let fmark = Array.make inst.n_frags (-1) and stamp = ref (-1) in
  let upds = Vec.create () and size = [| 0. |] in
  let add m frag u =
    for i = inst.class_off.(u) to inst.class_off.(u + 1) - 1 do
      let f = inst.class_frag.(i) in
      if fmark.(f) <> m then begin
        fmark.(f) <- m;
        frag f;
        size.(0) <- size.(0) +. inst.frag_size.(f)
      end
    done
  in
  fun c frag ->
    incr stamp;
    let m = !stamp in
    Vec.clear upds;
    for i = inst.class_off.(c) to inst.class_off.(c + 1) - 1 do
      let f = inst.class_frag.(i) in
      for k = inst.frag_upd_off.(f) to inst.frag_upd_off.(f + 1) - 1 do
        let u = inst.frag_upd.(k) in
        if umark.(u) <> m then begin
          umark.(u) <- m;
          match alive with
          | Some a when not a.(u) -> ()
          | _ -> Vec.push upds u
        end
      done
    done;
    size.(0) <- 0.;
    add m frag c;
    let others = ref 0. in
    for j = 0 to Vec.length upds - 1 do
      let u = Vec.get upds j in
      if u <> c then others := !others +. inst.class_weight.(u);
      add m frag u
    done;
    (size.(0), !others)

(* Lazy max-heap ordered by (key desc, rest desc, size desc, seq asc).
   The sort key of a queued class only ever decreases (its remaining
   weight is the only moving part), so re-pushing stale heads gives the
   order of a full re-sort per placement whenever keys are distinct. *)
module Heap = struct
  type entry = { key : float; hrest : float; hsize : float; seq : int; cls : int }

  type h = { mutable a : entry array; mutable len : int }

  let dummy = { key = 0.; hrest = 0.; hsize = 0.; seq = 0; cls = -1 }
  let create () = { a = Array.make 64 dummy; len = 0 }

  let before x y =
    x.key > y.key
    || (x.key = y.key
        && (x.hrest > y.hrest
            || (x.hrest = y.hrest
                && (x.hsize > y.hsize || (x.hsize = y.hsize && x.seq < y.seq)))))

  let push h e =
    if h.len = Array.length h.a then begin
      let a' = Array.make (2 * h.len) dummy in
      Array.blit h.a 0 a' 0 h.len;
      h.a <- a'
    end;
    h.a.(h.len) <- e;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && before h.a.(!i) h.a.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.a.(0) in
      h.len <- h.len - 1;
      h.a.(0) <- h.a.(h.len);
      h.a.(h.len) <- dummy;
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let best = ref !i in
        if l < h.len && before h.a.(l) h.a.(!best) then best := l;
        if r < h.len && before h.a.(r) h.a.(!best) then best := r;
        if !best = !i then continue := false
        else begin
          let tmp = h.a.(!best) in
          h.a.(!best) <- h.a.(!i);
          h.a.(!i) <- tmp;
          i := !best
        end
      done;
      Some top
    end
end

let greedy inst =
  let t = create inst in
  let n = Array.length inst.backends in
  if n = 0 then invalid_arg "Dense.greedy: no backends";
  let nf = inst.n_frags in
  (* --- greedy-only tables ------------------------------------------ *)
  (* Which fragments some read class touches: updates overlapping none of
     them are explicit (Eq. 20). *)
  let frag_has_read = Bits.create nf in
  Array.iter
    (fun c -> iter_footprint inst c (fun f -> Bits.set frag_has_read f))
    inst.read_idx;
  let explicit = Vec.create () in
  Array.iter (fun c -> Vec.push explicit c) inst.read_idx;
  Array.iter
    (fun u ->
      let touches_read = ref false in
      iter_footprint inst u (fun f ->
          if Bits.get frag_has_read f then touches_read := true);
      if not !touches_read then Vec.push explicit u)
    inst.upd_idx;
  let explicit = Vec.to_array explicit in
  let ne = Array.length explicit in
  (* Closure footprint, size and extra update weight per explicit class. *)
  let closure = class_closure inst in
  let closure_off = Array.make (ne + 1) 0 in
  let closure_frag = Vec.create () in
  let closure_size = Array.make ne 0. in
  let extra_w = Array.make ne 0. in
  Array.iteri
    (fun ei c ->
      let size, w = closure c (Vec.push closure_frag) in
      closure_size.(ei) <- size;
      extra_w.(ei) <- w;
      closure_off.(ei + 1) <- Vec.length closure_frag)
    explicit;
  let closure_frag = Vec.to_array closure_frag in
  (* --- the queue ---------------------------------------------------- *)
  let rest = Array.copy inst.class_weight in
  let key ei = (rest.(explicit.(ei)) +. extra_w.(ei)) *. closure_size.(ei) in
  let heap = Heap.create () in
  let push ei seq =
    let c = explicit.(ei) in
    let hsize = inst.class_size.(c) in
    Heap.push heap { Heap.key = key ei; hrest = rest.(c); hsize; seq; cls = ei }
  in
  Array.iteri (fun ei _ -> push ei ei) explicit;
  (* Decreasing negative sequence numbers: a re-queued class beats older
     entries on full ties, as it would lead a stable re-sort. *)
  let requeue_seq = ref 0 in
  let requeue ei =
    decr requeue_seq;
    push ei !requeue_seq
  in
  let scaled = Array.copy inst.loads in
  let all_full () =
    let rec go b = b >= n || (t.load.(b) >= scaled.(b) -. eps && go (b + 1)) in
    go 0
  in
  let difference ei b =
    if t.load.(b) >= scaled.(b) -. eps then infinity
    else if t.load.(b) <= eps then 0.
    else begin
      let missing = ref 0. in
      for k = closure_off.(ei) to closure_off.(ei + 1) - 1 do
        let f = closure_frag.(k) in
        if not (Bits.get t.held.(b) f) then
          missing := !missing +. inst.frag_size.(f)
      done;
      !missing
    end
  in
  let on_pin u = rest.(u) <- 0. in
  let continue = ref true in
  while !continue do
    match Heap.pop heap with
    | None -> continue := false
    | Some e ->
        let ei = e.Heap.cls in
        let c = explicit.(ei) in
        if e.Heap.key <> key ei || e.Heap.hrest <> rest.(c) then requeue ei
        else begin
          let w = inst.class_weight.(c) in
          if all_full () then
            for b = 0 to n - 1 do
              scaled.(b) <- t.load.(b) +. (inst.loads.(b) *. w)
            done;
          let best = ref 0 and best_diff = ref (difference ei 0) in
          for b = 1 to n - 1 do
            let d = difference ei b in
            if d < !best_diff then begin
              best := b;
              best_diff := d
            end
          done;
          let b = !best in
          for k = closure_off.(ei) to closure_off.(ei + 1) - 1 do
            install_fragment t b closure_frag.(k)
          done;
          ignore (settle ~on_pin t b);
          if is_update inst c then begin
            if t.load.(b) > scaled.(b) then scaled.(b) <- t.load.(b)
          end
          else begin
            if t.load.(b) >= scaled.(b) -. eps then
              scaled.(b) <- t.load.(b) +. (inst.loads.(b) *. w);
            let capacity = scaled.(b) -. t.load.(b) in
            let rw = rest.(c) in
            if rw > capacity +. eps then begin
              rest.(c) <- rw -. capacity;
              add_assign t b c capacity;
              t.load.(b) <- scaled.(b);
              requeue ei
            end
            else begin
              add_assign t b c rw;
              rest.(c) <- 0.;
              t.load.(b) <- t.load.(b) +. rw
            end
          end
        end
  done;
  refresh t;
  t

(* ------------------------------------------------------------------ *)
(* Mutation (the memetic's, paper Algorithm 2)                        *)
(* ------------------------------------------------------------------ *)

let mutate rng t =
  let child = copy t in
  let n = num_backends child in
  let reads = t.inst.read_idx in
  if Array.length reads = 0 || n < 2 then child
  else begin
    let sources = Array.make n 0 in
    let attempts = 1 + Rng.int rng 3 in
    for _ = 1 to attempts do
      let c = reads.(Rng.int rng (Array.length reads)) in
      let ns = ref 0 in
      iter_shares child c (fun b w ->
          if child.b_alive.(b) && w > Eps.tiny then begin
            sources.(!ns) <- b;
            incr ns
          end);
      if !ns > 0 then begin
        let b1 = sources.(Rng.int rng !ns) in
        let b2 = Rng.int rng n in
        if b1 <> b2 && child.b_alive.(b2) then begin
          let a1 = share child b1 c in
          let amount = if Rng.bool rng then a1 else Rng.float rng a1 in
          transfer child c ~b1 ~b2 ~amount
        end
      end
    done;
    child
  end

(* ------------------------------------------------------------------ *)
(* Synthetic massive instances                                         *)
(* ------------------------------------------------------------------ *)

let synthetic ?(materialize = false) ~rng ~fragments ~reads ~updates ~backends
    () =
  if fragments <= 0 || reads <= 0 || backends <= 0 then
    invalid_arg "Dense.synthetic: need positive fragments/reads/backends";
  let frag_size = Array.init fragments (fun _ -> 0.5 +. Rng.float rng 1.5) in
  let span max_span =
    let s = 1 + Rng.int rng (min max_span fragments) in
    let start = Rng.int rng (fragments - s + 1) in
    Array.init s (fun i -> start + i)
  in
  let raw = Array.make (reads + updates) 0. in
  let specs =
    Array.init (reads + updates) (fun i ->
        if i < reads then begin
          raw.(i) <- 0.01 +. Rng.float rng 1.0;
          {
            cs_id = Printf.sprintf "q%d" (i + 1);
            cs_update = false;
            cs_weight = 0.;
            cs_frags = span 8;
          }
        end
        else begin
          raw.(i) <- 0.25 *. (0.01 +. Rng.float rng 1.0);
          {
            cs_id = Printf.sprintf "u%d" (i - reads + 1);
            cs_update = true;
            cs_weight = 0.;
            cs_frags = span 4;
          }
        end)
  in
  let total = Array.fold_left ( +. ) 0. raw in
  let specs =
    Array.mapi (fun i s -> { s with cs_weight = raw.(i) /. total }) specs
  in
  let frags =
    if not materialize then None
    else
      Some
        (Array.init fragments (fun i ->
             Fragment.range "t" "k" ~lo:(float_of_int i)
               ~hi:(float_of_int (i + 1))
               ~size:frag_size.(i)))
  in
  make_instance ?frags
    ~backends:(Array.of_list (Backend.homogeneous backends))
    ~frag_size specs
