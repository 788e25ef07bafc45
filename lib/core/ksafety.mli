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
(** Greedy allocation with the k-safety extension (Algorithm 4): after the
    base first-fit pass, under-replicated classes are re-enqueued as
    zero-weight replicas that must land on backends not already holding
    them.

    With [topology], placement is fault-domain aware: candidate backends in
    zones not yet holding a replica of the class are preferred outright
    (the spread key dominates the data-movement key), and a final pass adds
    replicas — restricted to uncovered zones — until every class spans
    [min (k+1, zones)] fault domains.  The spread pass may push a class
    above k+1 copies when the first k+1 landed in fewer zones.

    @raise Invalid_argument when [k + 1] exceeds the backend count, or when
    [topology] does not cover exactly the given backends. *)

val class_holders : ?failed:int list -> Allocation.t -> Query_class.t -> int list
(** The backends holding all of the class's fragments, ascending,
    excluding [failed]. *)

val class_zone_spread :
  ?failed:int list -> topology:Topology.t -> Allocation.t ->
  Query_class.t -> int
(** Number of distinct fault domains the class's surviving replicas span. *)

val spread_ok :
  ?failed:int list -> topology:Topology.t -> k:int -> Allocation.t -> bool
(** Whether every class's surviving replicas span at least
    [min (k+1, zones with a surviving backend)] fault domains — the
    domain-spread analogue of {!is_k_safe}.  This is the predicate a
    controller checks before declaring a repair unnecessary: replica
    {e count} can be fine while every copy sits in one zone. *)

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
    under-replicated class onto surviving backends (Algorithm 4's placement
    rule, restricted to non-failed nodes), in place.  Returns the fragments
    each backend gained — the copy obligations a controller must ship to
    materialize the repair (entries for failed backends become due when the
    node rejoins).

    With [topology], the repair also restores {e spread}: after the count
    pass, classes whose surviving replicas span fewer than
    [min (k+1, zones with a surviving backend)] domains gain replicas in
    uncovered zones, so the post-repair allocation satisfies {!spread_ok}
    [~failed].

    @raise Invalid_argument when [k + 1] exceeds the number of surviving
    backends, or when [topology] does not cover exactly the allocation's
    backends. *)
