(** The CDBS controller — the middleware of the paper's prototype (Fig. 3).

    Owns a set of backend databases (each an independent in-memory
    {!Cdbs_storage} engine holding a subset of the tables), routes incoming
    SQL by the least-pending rule, applies updates read-once/write-all, and
    records every request in the query history.  Switching to allocation
    mode classifies the history, computes a new allocation (greedy +
    memetic), matches it cost-minimally against the running placement and
    rebuilds the backends.

    Physical placement is table-granular (the storage engine stores whole
    tables); column-granular allocations are exercised at the model and
    simulation level. *)

type t

val create :
  schema:Cdbs_storage.Schema.t ->
  rows:(string * int) list ->
  backends:int ->
  seed:int ->
  t
(** Bootstrap: generate data, start [backends] fully replicated backend
    databases (the paper's initial configuration used to collect a first
    weight distribution).  Read routing is guarded by a circuit breaker
    with {!Cdbs_resilience.Breaker.default_config}. *)

val submit : t -> string -> (Cdbs_storage.Executor.result, string) result
(** Route and execute one SQL statement; reads run on the least-pending
    eligible backend, updates on every backend holding the touched tables
    (and on the controller's authoritative master copy).  The request and
    its cost are recorded in the query history.

    Read routing consults the circuit breaker: backends whose breaker is
    open are skipped unless every eligible backend's is (fail open).
    Each read's estimated cost feeds the breaker as a latency sample;
    execution errors feed its error window.  The breaker clock is the
    controller's request counter, so [cool_down] is measured in submitted
    statements. *)

val journal : t -> Cdbs_core.Journal.t
val allocation : t -> Cdbs_core.Allocation.t option
(** [None] while fully replicated (before the first reallocation). *)

val breaker : t -> Cdbs_resilience.Breaker.t
(** The controller's circuit breaker — inspect per-backend health or
    force states ({!Cdbs_resilience.Breaker.force_open}) for operational
    overrides and tests. *)

val backend_tables : t -> string list list
(** Per backend, the tables it currently stores. *)

val reallocate : t -> unit -> (float, string) result
(** Allocation mode: classify the history at table granularity, run greedy
    plus 40 iterations of memetic improvement, deploy via Hungarian
    matching and bulk table copies.  Returns the total megabytes shipped.
    Fails when the history is empty or a live migration is in progress.
    This is the stop-the-world path; see {!reallocate_live} for the online
    one. *)

(** {1 Live migration}

    The online deployment path: the same Hungarian-matched target as
    {!reallocate}, executed as an ordered sequence of per-table snapshot
    copies while the controller keeps serving.  Each {!submit} ships the
    configured bandwidth budget of copy work; updates touching a table
    whose snapshot is on the wire are captured and replayed just before
    that table cuts over on its destination.  Surplus copies are dropped
    only after every copy has cut over (expand-then-contract), so no table
    — and hence no query class — ever loses its last serving replica. *)

type migration_progress = {
  tables_total : int;  (** copies the plan calls for *)
  tables_done : int;  (** copies already cut over *)
  mb_total : float;  (** total megabytes to ship *)
  mb_shipped : float;  (** megabytes shipped so far *)
  delta_pending : int;  (** captured statements awaiting replay *)
  replayed_statements : int;  (** delta statements replayed so far *)
}

val begin_reallocate_live :
  t ->
  ?bandwidth_mb_per_request:float ->
  unit ->
  (Cdbs_migration.Planner.plan, string) result
(** Start a live reallocation (default throttle: 5 MB of copy work per
    submitted request).  Returns the migration plan; the copy work itself
    is performed incrementally by subsequent {!submit} calls and
    {!drive_migration}. *)

val is_migrating : t -> bool

val migration_progress : t -> migration_progress option
(** [None] when no migration is active. *)

val drive_migration : t -> unit -> unit
(** Complete the remaining migration without submitting a request — e.g.
    to let an idle system finish its rebalance. *)

val reallocate_live : t -> unit -> (float, string) result
(** {!begin_reallocate_live} driven straight to completion; returns the
    megabytes shipped.  Equivalent to the offline {!reallocate} in outcome
    but exercises the snapshot / delta-replay / cutover pipeline. *)

val stats : t -> int * float
(** [(processed, total_cost)]: requests processed and their accumulated
    cost since creation. *)
