(** Flat-array allocation core, from the paper's examples to massive
    instances.

    A workload compiles into an immutable {!instance}: CSR class→footprint
    and fragment→update-class tables over integer fragment ids, with the
    [Fragment.t] values optionally materialized.  An allocation state is
    per-backend bitsets plus, per class, the sorted (backend, share) pairs
    of its non-zero shares, with cached per-backend load and active/pinned
    class lists, so the greedy and memetic hot paths at 10⁵–10⁷ fragments
    run as indexed loops with reusable scratch buffers.  A state's size
    grows with its classes and non-zero shares, not with backends ×
    classes, and {!copy} shares every class's pairs with its parent until
    one side writes them.

    This is the one representation of a placement: an {!Allocation} is a
    view over a state on the instance it compiled.  The paper's
    heuristics run here — {!Greedy.allocate} runs {!greedy}, {!Ksafety}
    its k-safe pass and {!Memetic} its evolution ({!mutate}, {!transfer},
    {!cost}) — so paper-sized and massive instances share one kernel of
    each. *)

(** {1 Compiled instance} *)

type class_spec = {
  cs_id : string;
  cs_update : bool;
  cs_weight : float;
  cs_frags : int array;  (** fragment indices; deduped by the builder *)
}

type instance = {
  backends : Backend.t array;
  loads : float array;  (** relative capacity share per backend *)
  frag_size : float array;
  frags : Fragment.t array option;
      (** materialized fragments: an {!Allocation}'s instance has them, a
          {!synthetic} one only on request *)
  n_frags : int;
  n_classes : int;
  kind : Bytes.t;  (** per class: ['\000'] read, ['\001'] update *)
  class_id : string array;
  class_weight : float array;
  class_off : int array;  (** footprint CSR offsets, length n_classes+1 *)
  class_frag : int array;  (** footprint CSR, sorted per class *)
  class_size : float array;
  read_idx : int array;  (** read class indices, workload order *)
  upd_idx : int array;  (** update class indices, workload order *)
  frag_upd_off : int array;  (** fragment→update CSR offsets *)
  frag_upd : int array;
  ext_used : bool ref;
      (** one-shot claim on the capacity slack of the class arrays; set
          by the first in-place {!Incremental} extension of this
          instance so a second extension of the same base falls back to
          copying *)
}

val class_capacity : int -> int
(** Physical length of the class-indexed arrays for a logical class
    count: ~12.5% slack plus a constant, reserved for in-place
    extension. *)

val sorted_footprint : int -> int array -> int array
(** [sorted_footprint n_frags frags]: sorted and deduped, as an instance
    stores a footprint.  @raise Invalid_argument on an index out of range. *)

val update_csr :
  int -> class_off:int array -> class_frag:int array -> int array ->
  int array * int array
(** [update_csr n_frags ~class_off ~class_frag upd_idx]: [frag_upd_off] and
    [frag_upd] over the footprints of the update classes [upd_idx]. *)

val make_instance :
  ?frags:Fragment.t array ->
  backends:Backend.t array ->
  frag_size:float array ->
  class_spec array ->
  instance
(** Compile classes over fragments [0 .. length frag_size - 1]; the class
    at index [c] is [specs.(c)], the read and update indices keep that
    order.  [frags], when given, names the same fragments.
    @raise Invalid_argument on a negative weight, a fragment index out of
    range, or [frags] of another length. *)

val is_update : instance -> int -> bool
val iter_footprint : instance -> int -> (int -> unit) -> unit

val synthetic :
  ?materialize:bool ->
  rng:Cdbs_util.Rng.t ->
  fragments:int ->
  reads:int ->
  updates:int ->
  backends:int ->
  unit ->
  instance
(** Random massive instance: contiguous range footprints (reads span up
    to 8 fragments, updates up to 4), weights normalized to sum 1 with
    roughly 4:1 read:update mass.  With [materialize] the [Fragment.t]
    array is built too, so checkers can name fragments; off by default
    to keep 10⁶-fragment instances cheap. *)

(** {1 Allocation state} *)

(** Bitsets over fragment indices (bytes, 8 bits each). *)
module Bits = Cdbs_util.Bits

type shares
(** The assignment: for each class slot, its non-zero (backend, share)
    pairs in ascending backend order, held in an immutable array that a
    write replaces.  Read and write it through {!share}, {!set_share} and
    {!iter_shares}. *)

type t = {
  inst : instance;
  b_alive : bool array;  (** retired backends stay in place, flagged dead *)
  c_alive : bool array;  (** retired classes are tombstoned *)
  held : Bits.t array;  (** per backend, over fragments *)
  shares : shares;  (** per class slot *)
  load : float array;  (** cached per-backend sums of the shares *)
  stored : float array;  (** cached size of [held] *)
  upd_pins : int array;  (** per update class: backends where pinned *)
  active : int Cdbs_util.Vec.t array;
      (** per backend: read classes possibly assigned (may hold stale
          entries; compacted on prune) *)
  pinned : int Cdbs_util.Vec.t array;
      (** per backend: update classes possibly pinned *)
  scratch_bits : Bits.t;
  scratch_stack : int Cdbs_util.Vec.t;
}
(** Treat the fields as read-only outside [Cdbs_core]; mutate through the
    operations below so the cached sums and membership vectors stay
    consistent. *)

val create : instance -> t
(** Empty allocation (no data, no assignment). *)

val copy : t -> t
(** O(classes + non-zero shares + bitsets): the per-class pairs are
    shared, not copied. *)

val num_backends : t -> int

(** {1 Shares} *)

val share : t -> int -> int -> float
(** [share t b c]: class [c]'s share on backend [b], [0.] when none. *)

val set_share : t -> int -> int -> float -> unit
(** [set_share t b c w] replaces class [c]'s pairs with a new array ([w]
    equal to [0.] drops the pair).  A raw write: the caller keeps [load]
    and the membership vectors in step. *)

val iter_shares : t -> int -> (int -> float -> unit) -> unit
(** [iter_shares t c f] calls [f b w] for each of class [c]'s non-zero
    shares, backends ascending.  It walks the pairs as they were when
    called, so [f] may write class [c]. *)

val class_slots : t -> int
(** Physical length of the class-indexed state ([c_alive], [upd_pins],
    the shares). *)

val widen_classes : t -> int -> t
(** [widen_classes t cap]: [t] over [cap] class slots, its first
    [n_classes] copied; the rest are alive, pinned nowhere and hold no
    shares.  The per-backend state is [t]'s own, not a copy. *)

val holds : t -> int -> int -> bool
val overlaps : t -> int -> int -> bool

val scale : t -> float
(** Eqs. 14–15 over alive backends, floored at 1. *)

val total_stored : t -> float
val cost : t -> float * float
(** [(scale, total_stored)] from the cached per-backend sums, which the
    moves update in place. *)

val refresh : t -> unit
(** Resum the cached load and stored bytes from the shares and bitsets:
    each backend's load in ascending class order, its stored bytes in
    ascending fragment index. *)

val rebuild : t -> unit
(** Rebuild every cache from the shares and bitsets: {!refresh}, then per
    backend the classes with a positive share, reads in [active] and
    updates in [pinned], each ascending, and [upd_pins].  A state read
    through {!Allocation.state} starts here, so what a prune or a check
    does with it does not depend on how its shares were written. *)

(** {1 Moves} *)

val install_class : t -> int -> int -> float
val add_assign : t -> int -> int -> float -> unit
val prune_backend : t -> int -> unit

val transfer : t -> int -> b1:int -> b2:int -> amount:float -> unit
(** [transfer t c ~b1 ~b2 ~amount] moves [min amount (share t b1 c)] of
    read class [c] from [b1] to the alive [b2], installing [c]'s data and
    its update closure on [b2], then prunes [b1] alone: [b1] drops what no
    class still assigned there references, and an update class left on no
    backend stays on [b1] (Eq. 11).  The memetic's move. *)

val install_fragments : t -> int -> int array -> float
(** [install_fragments t b fs] stores fragments [fs] on backend [b] and
    pins there every alive update class they bring (Eq. 10, to a
    fixpoint).  Returns the update weight newly pinned on [b]. *)

(** {1 Algorithms} *)

val class_closure :
  ?alive:bool array -> instance -> int -> (int -> unit) -> float * float
(** [class_closure inst c frag]: [C ∪ updates(C)] (Eq. 20).  [frag] sees
    each of its fragments once, [c]'s own first; returns its size and the
    weight of its updates other than [c].  The greedy key with remaining
    weight [rest] is [(rest + weight) × size].  With [alive], updates(C)
    leaves out the update classes it flags [false] (a state's [c_alive]).
    [class_closure inst] keeps its scratch for every class it is then
    given. *)

val greedy : instance -> t
(** Algorithm 1, the one greedy kernel ({!Greedy.allocate} runs it): a
    lazy max-heap over the {!class_closure} keys, bitset scans for the
    backend missing the least closure data.  Each update pin adds its own
    [w - old] to the backend's load. *)

val mutate : Cdbs_util.Rng.t -> t -> t
(** The memetic's mutation ({!Memetic}, {!Memetic_par}): a copy with 1–3
    random {!transfer}s, each moving all or a random part of a random read
    class's share from one backend serving it to a random other one. *)
