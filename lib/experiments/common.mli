(** Shared plumbing for the experiment harness: allocation strategies,
    simulation driving, and table printing. *)

type strategy =
  | Full_replication
  | Table_based
  | Column_based
  | Random_placement

val strategy_name : strategy -> string

val allocate :
  rng:Cdbs_util.Rng.t ->
  strategy ->
  table_workload:Cdbs_core.Workload.t ->
  column_workload:Cdbs_core.Workload.t ->
  Cdbs_core.Backend.t list ->
  Cdbs_core.Allocation.t
(** Build the allocation a strategy yields.  Full replication is modeled as
    a single-class-style placement: every backend holds every fragment of
    the table workload and reads are spread evenly. *)

val full_replication :
  Cdbs_core.Workload.t -> Cdbs_core.Backend.t list -> Cdbs_core.Allocation.t

val checked_alloc :
  ?topology:Cdbs_core.Topology.t ->
  context:string ->
  k:int ->
  Cdbs_core.Allocation.t ->
  Cdbs_core.Allocation.t
(** The allocation itself, once the static checker (k-safety, and the
    zone spread under a [topology]) has passed it when the verifier is
    installed. *)

val simulate :
  ?cost:Cdbs_cluster.Cost_model.params ->
  ?protocol:Cdbs_cluster.Protocol.t ->
  Cdbs_core.Allocation.t ->
  Cdbs_cluster.Request.t list ->
  Cdbs_cluster.Simulator.outcome
(** Batch-mode simulation with homogeneous unit-speed backends. *)

val p99_of : (float * float) list -> float
(** The 99th-percentile response time (seconds) of a run's
    [(arrival, response)] pairs, read off a telemetry histogram. *)

type point = {
  t0 : float;  (** bucket start, seconds *)
  t1 : float;  (** bucket end *)
  avg_ms : float;  (** mean response of requests arriving in the bucket *)
  n : int;  (** requests in the bucket *)
  phase : string;  (** the phase of the bucket's midpoint *)
}

val timeline :
  duration:float ->
  buckets:int ->
  phase_of:(float -> string) ->
  (float * float) list ->
  point list
(** A response-time timeline: [(arrival, response)] pairs in [buckets]
    equal buckets over [\[0, duration)], the last bucket taking any later
    arrival. *)

val header : string -> unit
(** Print a section header for the harness output. *)

val table : columns:string list -> (string * float list) list -> unit
(** Print an aligned table: row label plus one value per column. *)

val mean_of_runs : (int -> float) -> runs:int -> float
(** Average [f seed] over seeds 1..runs. *)
