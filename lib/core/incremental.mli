(** O(delta) incremental re-allocation (the DDIA ch. 6 rebalancing rule:
    fixed fragments ≫ nodes, move no more data than strictly necessary).

    Instead of re-solving from scratch when the workload or topology
    shifts, {!repair} takes an existing {!Dense.t} plus a typed delta and
    repairs only the affected cohort: reweighted classes are rescaled in
    place (no data moves), retired classes release their data, retired
    backends hand their assignments to the cheapest surviving holders,
    new classes are placed with the greedy key, and new backends are
    filled by a budget-bounded rebalance that moves the most
    load-per-byte first.  With [k] (and optionally a {!Topology}) the
    touched classes are re-replicated and re-spread by
    {!Ksafety.replicate}, the pass that builds k-safe placements, so
    k-safety and zone spread survive the delta.

    {!repair} CONSUMES its input: the result reuses the input's shares,
    bitsets and membership vectors in place (widened over an
    extended instance when classes or backends were added), so the
    input state must not be used afterwards — {!Dense.copy} it first if
    the pre-delta allocation is still needed.  This is what makes the
    repair O(delta): no O(fragments x backends) copy is ever taken;
    move statistics are computed against per-backend snapshots made the
    first time the repair touches a backend, and are returned for a
    controller to hand to [Cdbs_migration]. *)

type delta =
  | Reweight of { cls : int; weight : float }
      (** change class [cls]'s weight; read assignments rescale
          proportionally, pinned updates re-pin at the new weight —
          no data moves *)
  | Add_read of { id : string; weight : float; frags : int array }
  | Add_update of { id : string; weight : float; frags : int array }
      (** new classes over existing fragment indices; ids must be fresh *)
  | Retire_class of { cls : int }  (** tombstone the class, free its data *)
  | Add_backend of { name : string; capacity : float }
      (** [capacity] relative to the mean alive backend (1.0 = a peer);
          capacity shares are renormalized *)
  | Retire_backend of { backend : int }
      (** drain and deaden the backend; its index stays valid but dead *)

type stats = {
  touched_classes : int;
  moved_fragments : int;  (** fragment copies newly installed anywhere *)
  moved_mb : float;
  dropped_fragments : int;
  dropped_mb : float;
  rebalance_fragments : int;
      (** the optional (budget-bounded) subset of [moved_fragments] *)
  moves : (int * int * int option) array;
      (** (fragment, destination, source) — source [None] when the
          fragment had no surviving holder *)
}

val repair :
  ?k:int ->
  ?topology:Topology.t ->
  ?budget:int ->
  ?balance:bool ->
  Dense.t ->
  delta list ->
  Dense.t * stats
(** [budget] caps the number of fragment copies the {e optional}
    rebalance (new-backend fill, and the [balance] pass below) may
    install; correctness moves — update closure, Eq. 9/11 restoration,
    k-safety — are never dropped.  With [k > 0] local pruning is
    disabled so standby replicas of untouched classes survive the
    repair, and a retired backend touches every alive class it holds in
    full: its standby replicas carry no share, so they are placed again
    elsewhere.

    [balance] (default [false]) appends a global budget-bounded balance
    pass: read weight shifts from the most-loaded alive backend to the
    least-loaded one, each step picking the class with the {e most
    transferable load} (the smaller of the donor's assigned weight and
    the load-equalizing amount; ties prefer fewer missing fragments) and
    installing whatever fragments the receiver is missing, until
    relative loads agree within 5 % or the budget runs dry.  A bare [Reweight] rescales in place and
    moves no data; with [balance] the same delta also grows extra
    replicas of the now-hot classes on underloaded backends — the
    mechanism the self-tuning control loop uses to turn measured drift
    into a better placement.  Off by default: existing callers get
    byte-identical repairs.
    @raise Invalid_argument on out-of-range indices or negative
    weights/capacities. *)

val random_delta :
  rng:Cdbs_util.Rng.t -> ?frac:float -> Dense.t -> delta list
(** A random delta touching about [frac] (default 1%) of the classes:
    weight shifts, new reads, retirements.  Used by the scale benchmark
    and the property tests. *)
