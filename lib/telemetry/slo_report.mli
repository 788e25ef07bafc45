(** SLO report: the service-level summary of a run.

    One record gathers what an operator would put on a dashboard after a
    day in production — availability, latency percentiles, shed rate,
    wasted work, bytes moved by migrations, per-backend utilization —
    with text and JSON renderers, and a [gate] that turns threshold
    violations into a failing exit code in CI. *)

type t = {
  duration_s : float;        (** simulated time covered *)
  offered : int;             (** requests offered *)
  completed : int;           (** requests that finished in time *)
  shed : int;                (** refused by admission/breaker/deadline *)
  failed : int;              (** aborted for any other reason *)
  availability : float;      (** completed / offered *)
  p50_s : float;
  p95_s : float;
  p99_s : float;
  mean_s : float;
  shed_rate : float;         (** shed / offered *)
  wasted_work_s : float;     (** service seconds spent on discarded work
                                 (hedge losers, doomed reads) *)
  retries : int;
  hedges : int;
  bytes_moved_mb : float;    (** migration copy traffic *)
  migrations : int;          (** migration plans executed *)
  faults_injected : int;
  trace_dropped : int;
      (** trace-ring events evicted by overflow during the run — nonzero
          means the retained trace is a suffix, not the whole story *)
  reallocations : int;
      (** drift-triggered live reallocations the control loop executed *)
  rollbacks : int;
      (** reallocations undone by the canary guardrail (a subset of
          [reallocations]) *)
  drift_score : float;
      (** peak divergence between assumed and measured class mix observed
          over the run (0 when no estimator was attached) *)
  utilization : (int * float) list;
      (** per-backend busy fraction, sorted by backend id *)
}

val availability_of : offered:int -> completed:int -> float
(** [completed / offered]; 1.0 when nothing was offered. *)

val of_histogram :
  duration_s:float ->
  offered:int ->
  completed:int ->
  shed:int ->
  failed:int ->
  wasted_work_s:float ->
  retries:int ->
  hedges:int ->
  bytes_moved_mb:float ->
  migrations:int ->
  faults_injected:int ->
  ?trace_dropped:int ->
  ?reallocations:int ->
  ?rollbacks:int ->
  ?drift_score:float ->
  utilization:(int * float) list ->
  Histogram.t ->
  t
(** Build a report, deriving availability, shed rate and the latency
    fields (p50/p95/p99/mean) from the histogram.  [trace_dropped]
    (default 0) surfaces {!Trace.dropped} of the run's sink;
    [reallocations]/[rollbacks]/[drift_score] (defaults 0/0/0.) surface
    the control loop's activity when one drove the run. *)

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable rendering. *)

val to_json : t -> string
(** Deterministic single-line JSON object. *)

(** {1 Gating} *)

type gate = {
  min_availability : float option;
  max_p99_s : float option;
  max_shed_rate : float option;
}

val gate : ?min_availability:float -> ?max_p99_s:float -> ?max_shed_rate:float
  -> unit -> gate

val check :
  gate -> availability:float -> p99_s:float -> shed_rate:float -> string list
(** Human-readable violation messages for a run with these figures (a
    report's fields, or a run that has no report); empty means it
    passes. *)
