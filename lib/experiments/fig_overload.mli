(** Overload protection & gray-failure mitigation (fig_overload).

    The paper's allocation layer balances load under the assumption that
    every backend is healthy; this experiment measures what the runtime
    defenses buy when that assumption breaks.  On the same seeded
    open-arrival workload, with one backend slowed by a {!Cdbs_faults}
    [Slowdown] for the middle half of the run, it compares:

    - {e undefended}: clients abandon requests at their deadline but the
      system has no server-side defense — doomed reads are still served
      (wasted capacity), the slow backend keeps taking its share of
      traffic, and stragglers are never hedged;
    - {e defended}: admission control + circuit breakers + hedged reads +
      deadline budgets ({!Cdbs_resilience}).

    The acceptance criterion of the PR: the defended run improves p99 and
    keeps availability at least at the undefended level, with zero shed
    updates. *)

type run_stats = {
  offered : int;
  completed : int;
  availability : float;  (** completed / offered — the goodput ratio *)
  avg_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  shed : int;  (** reads refused by admission control *)
  shed_updates : int;  (** always 0 — the ROWA-preservation witness *)
  timeouts : int;  (** deadline expiries (client abandoned) *)
  hedged : int;
  hedge_wins : int;
  breaker_trips : int;
  wasted_s : float;  (** service seconds spent on doomed/losing work *)
  utilization : float array;  (** per-backend busy fraction *)
  offered_updates : int;
  completed_updates : int;
}

type comparison = {
  rate_per_s : float;
  undefended : run_stats;
  defended : run_stats;
}

val requests :
  seed:int -> rate_per_s:float -> duration:float -> Cdbs_cluster.Request.t list
(** The seeded open-arrival workload both arms replay (midday e-learning
    mix, uniform arrivals). *)

val clients_only : deadline_s:float -> Cdbs_resilience.Policy.t
(** Deadline-abandoning clients, no server-side defense. *)

val defenses : deadline_s:float -> Cdbs_resilience.Policy.t
(** The full defended bundle: admission (pending watermark at 80 % of the
    deadline), default breaker, default hedging, deadline budgets. *)

val compare_at :
  ?nodes:int ->
  ?seed:int ->
  ?duration:float ->
  ?slow_factor:float ->
  ?deadline_s:float ->
  ?slow_backend:int ->
  ?telemetry:Cdbs_telemetry.Sink.t ->
  ?monitor:Cdbs_analysis.Monitor.t ->
  rate_per_s:float ->
  unit ->
  int * comparison
(** One undefended/defended pair at the given offered rate.  Returns the
    slowed backend (by default the busiest backend of a clean probe run —
    the victim that hurts most) and the comparison.  Deterministic per
    seed.  [telemetry] and [monitor] observe both arms (the clean probe
    run is not observed — it uses the plain
    {!Cdbs_cluster.Simulator.run_open}). *)

val acceptance : comparison -> bool * string list
(** The PR's acceptance predicate: defended p99 <= undefended p99,
    defended availability >= undefended, zero shed updates in both arms,
    and every offered update committed in the defended run.  Returns
    [(ok, violations)]. *)

val pp_stats : Format.formatter -> string * run_stats -> unit
(** One-line rendering of a labelled arm, shared with the CLI. *)

val print_all : unit -> unit
