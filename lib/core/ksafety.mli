(** K-safe allocation (paper Appendix C, Algorithms 3–4).

    With k-safety the cluster tolerates the loss of any k backends without
    data loss or service interruption: every query class is allocated to at
    least k+1 backends (so each query can still execute locally after k
    failures), and consequently every fragment lives on at least k+1 nodes.
    Replicated query-class copies carry zero read weight — they are standby
    capacity — but replicated update classes do add update work.

    With a {!Topology} the guarantee extends to {e correlated} failures:
    replica count alone is worthless when all k+1 copies share a rack that
    loses power.  Domain-aware placement additionally spreads each class's
    replicas over [min (k+1)] and the number of zones that still have a
    live backend, so losing any single fault domain leaves every class
    served. *)

val allocate :
  ?topology:Topology.t -> k:int -> Workload.t -> Backend.t list ->
  Allocation.t
(** Greedy allocation with the k-safety extension (Algorithm 4): the
    workload is compiled once, {!Dense.greedy} places it and {!replicate}
    adds zero-weight replicas until every class is held by k+1 backends
    (and, with [topology], spans [min (k+1, zones)] fault domains); the
    allocation is the view over that state ({!Greedy.via_dense}).  The
    spread pass may push a class above k+1 copies when the first k+1
    landed in fewer zones.

    @raise Invalid_argument when [k + 1] exceeds the backend count, or when
    [topology] does not cover exactly the given backends. *)

val replicate :
  ?topology:Topology.t -> ?on_write:(int -> unit) -> ?only:(int -> bool) ->
  k:int -> Dense.t -> unit
(** The one k-safe placement pass, in place: {!allocate}, {!repair} and
    the k step of {!Incremental.repair} run it.  The classes are the
    alive ones [only] selects (default: all), heaviest first, ties in
    index order.

    A count pass gives each class k+1 replicas on alive backends (fewer
    when fewer are alive); with [topology], a spread pass then adds
    replicas in zones the class does not cover until it spans
    [min (k+1)] zones that have an alive backend.  Each replica goes to
    the alive backend not yet holding the class that minimizes, in
    order: whether its zone already holds a replica; the bytes of
    [C ∪ updates(C)] it is missing, summed in ascending fragment index;
    and its load over its capacity, the load summed over its shares in
    ascending class order (as {!Allocation.assigned_load} sums it).  The
    lowest index wins a tie.  The replica carries no read weight; the
    update classes its data brings are pinned at full weight.

    [on_write b] runs before the pass first writes backend [b]: a caller
    snapshots there what it needs to report the moves.  The pass leaves
    [load] as those ascending sums. *)

val class_holders : ?failed:int list -> Allocation.t -> Query_class.t -> int list
(** The backends holding all of the class's fragments, ascending,
    excluding [failed]. *)

val class_zone_spread :
  topology:Topology.t -> Allocation.t -> Query_class.t -> int
(** Number of distinct fault domains the class's replicas span. *)

val spread_ok : topology:Topology.t -> k:int -> Allocation.t -> bool
(** Whether every class's replicas span at least [min (k+1, zones with a
    backend)] fault domains — the domain-spread analogue of
    {!is_k_safe}.  This is the predicate a controller checks before
    declaring a repair unnecessary: replica {e count} can be fine while
    every copy sits in one zone. *)

val is_k_safe : k:int -> Allocation.t -> bool
(** Whether every query class of the workload is served by at least k+1
    backends. *)

val survives : Allocation.t -> failed:int list -> bool
(** Whether every query class can still be processed locally by some
    surviving backend after the listed backends fail. *)

val effective_k : ?failed:int list -> Allocation.t -> int
(** The k-safety degree actually in force: the minimum over query classes
    of (surviving replicas - 1), restricted to backends outside [failed].
    [-1] means some class is not served at all; an allocation built with
    {!allocate}[ ~k] reports [k] while every backend is up, and degrades by
    one per failed replica holder.  With an empty workload it is the
    surviving backend count minus 1. *)

val repair :
  ?topology:Topology.t -> k:int -> failed:int list -> Allocation.t ->
  Fragment.Set.t array
(** Restore [effective_k ~failed] to at least [k] by re-replicating every
    under-replicated class onto surviving backends: {!replicate} on the
    allocation's own state ({!Allocation.state}) with the [failed]
    backends dead while it runs.  Returns the fragments each backend
    gained — the copy
    obligations a controller must ship to materialize the repair (the
    failed backends gain nothing).

    With [topology], the repair also restores {e spread}: classes whose
    surviving replicas span fewer than [min (k+1, zones with a surviving
    backend)] domains gain replicas in uncovered zones, so the
    post-repair allocation's surviving replicas span that many domains.
    The input is expected to satisfy the update closure (Eq. 10), as every
    allocator's output does.

    @raise Invalid_argument when [k + 1] exceeds the number of surviving
    backends, or when [topology] does not cover exactly the allocation's
    backends. *)
