(** Least-pending-request-first scheduling (paper Sec. 2).

    The controller keeps a queue per backend.  A read goes to the eligible
    backend (one holding all of its class's data) with the least pending
    work; an update is enqueued on {e every} backend holding any of its
    referenced data (read-once/write-all). *)

type t

val create : Cdbs_core.Allocation.t -> t
(** Scheduler over the allocation's placement.  Eligibility derives from
    the fragment sets, so a zero-weight k-safety replica also serves its
    class. *)

val create_dynamic :
  Cdbs_core.Allocation.t -> live:Cdbs_core.Fragment.Set.t array -> t
(** Scheduler for a placement in motion (live migration): [live] lists the
    fragments each physical node serves {e right now} and may be longer
    than the allocation's backend count (decommissioning / fresh nodes).
    Routing uses the live sets only — the allocation supplies the query
    classes; its assignment weights describe the target, not the present,
    and are ignored.  Use {!add_live} / {!remove_live} at cutover and drop
    events. *)

val num_nodes : t -> int
(** Physical nodes under management ([= Array.length live]). *)

val live_fragments : t -> backend:int -> Cdbs_core.Fragment.Set.t
val add_live : t -> backend:int -> Cdbs_core.Fragment.Set.t -> unit
val remove_live : t -> backend:int -> Cdbs_core.Fragment.Set.t -> unit

val live_replicas : t -> Cdbs_core.Query_class.t -> int
(** Up, caught-up nodes whose live set contains every fragment of the
    class — the replicas a read can actually land on right now. *)

(** {1 Reads}

    Read eligibility: in static mode a read goes to the backends its class is assigned to, or, when none of those
    can serve, to any backend holding all of its data (k-safety standby
    replicas); in dynamic mode to the nodes whose live set holds it.  Only
    up, caught-up backends count.  [healthy] is an optional routing filter
    (e.g. a circuit breaker's [allows]): candidates failing it are steered
    around, but if {e every} candidate fails it the unfiltered set is used
    (fail open), since a slow replica still beats an unavailable answer.
    The filter is called on the base members in backend order up to the
    first it accepts, then once more on each remaining candidate. *)

val best_read_target :
  ?healthy:(int -> bool) -> ?exclude:int -> t -> now:float -> int -> int option
(** The candidate with the least pending work (the first one on ties) for
    a read of the class at this position in the allocation's
    {!Cdbs_core.Allocation.classes}; [None] when no backend can serve it.
    [exclude] removes one backend from the final selection only (for
    hedged second dispatches); the fail-open decision still counts it. *)

(** {1 Updates} *)

val targets_for_update_at : t -> int -> int list
(** Every up backend holding any of the data of the class at this position
    (read-once/write-all), stale ones included; updates are never
    health-filtered. *)

(** {1 Classes by position} *)

val class_position : t -> string -> int option
(** Position of the class with this id in the allocation's
    {!Cdbs_core.Allocation.classes}.  Callers on a per-request hot path
    resolve a request's class once and route by position. *)

val class_at : t -> int -> Cdbs_core.Query_class.t

val book : t -> backend:int -> finish:float -> unit
(** Record that the backend's queue now drains at [finish]. *)

val pending : t -> backend:int -> now:float -> float
(** Remaining queued work (seconds) on the backend at time [now]. *)

val free_at : t -> backend:int -> float
(** Time at which the backend's queue is empty. *)

val set_down : t -> backend:int -> unit
(** Mark a backend as failed: it receives no further work.  Reads fall back
    to any surviving backend holding their class's data (k-safety standby
    replicas, Appendix C); updates skip the dead replica.  Clears any stale
    flag — a down backend is simply down. *)

val set_up : ?stale:bool -> t -> backend:int -> unit
(** Rejoin a backend (the dual of {!set_down}).  With [~stale:true] it
    rejoins in catch-up mode: it takes updates (so its replicas stop
    falling further behind) but serves no reads until {!set_stale} clears
    the flag — the crash/recover lifecycle's re-admission gate. *)

val set_stale : t -> backend:int -> stale:bool -> unit
(** Flip the catch-up flag of an up backend.
    @raise Invalid_argument when the backend is down. *)

val is_up : t -> backend:int -> bool

val is_stale : t -> backend:int -> bool
(** Up but still replaying missed updates: excluded from reads,
    included in update fan-out. *)
