(** Workload-change robustness (paper Sec. 5).

    The processing model tolerates weight shifts when replicated query
    classes leave room to rebalance.  This module quantifies that tolerance
    and can harden an allocation so each fully loaded backend has classes
    that can be (partially) shifted away. *)

val shiftable_weight : Allocation.t -> int -> float
(** Weight currently on the backend that could move to other backends
    already holding the same classes' data, without new replication. *)

val is_robust : Allocation.t -> tolerance:float -> bool
(** Whether every backend whose utilization is at the maximum can shed at
    least [tolerance] of the total workload to peers. *)

val harden : Allocation.t -> tolerance:float -> unit
(** Add zero-weight replicas of read classes (smallest-data first) to
    backends until {!is_robust} holds.  In-place; increases storage but not
    assigned load. *)
