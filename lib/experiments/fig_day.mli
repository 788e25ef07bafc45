(** A day in production: the integrated SLO macro-benchmark.

    One composed scenario exercises every subsystem the PRs so far built,
    against the 24-hour diurnal e-learning {!Cdbs_workloads.Trace}:

    - the day is simulated in windows; each window's offered load follows
      the diurnal rate curve (scaled by [scale]);
    - an autoscaler sizes the cluster per window (capacity headroom rule);
      every resize is deployed as a {e live migration} whose copy traffic
      contends with foreground service on the touched backends;
    - a seeded chaos process injects crash/recover faults throughout,
      capped at the allocation's k-safety degree;
    - the full overload/gray-failure defense stack (admission control,
      circuit breakers, hedged reads, deadline budgets) is active;
    - a {!Cdbs_telemetry.Sink} observes the whole day — the SLO report is
      derived from its accumulated latency histogram and counters.

    Windows are independent simulator runs gluing together on shared
    telemetry: a backend left down at a window boundary rejoins with the
    next window (incidents are shorter than a window at the default
    parameters), and migration cutover happens at the window boundary
    while its copy traffic slows the touched backends during the window.

    The run is deterministic for a given parameter set: equal seeds give
    bit-identical reports (timing fields aside). *)

type params = {
  seed : int;
  scale : float;  (** multiplier on the diurnal trace's request rate *)
  window_minutes : float;  (** scheduling/autoscaling window length *)
  nodes_min : int;
  nodes_max : int;
  capacity_per_node : float;  (** autoscaler sizing rule, requests/s/node *)
  bandwidth_mb_s : float;  (** migration copy throttle, per stream *)
  copy_slowdown : float;  (** foreground inflation on copying backends *)
  deadline_s : float;  (** end-to-end client deadline budget *)
  mtbf : float;  (** chaos: mean seconds between faults per backend *)
  mttr : float;  (** chaos: mean fault duration, seconds *)
  trace_capacity : int;  (** telemetry trace ring size *)
  autotune : bool;
      (** run the {!Cdbs_control.Loop} self-healing control loop over the
          day (configured as {!Fig_drift.control_default}): drift-triggered
          guarded reallocations deploy as live migrations exactly like
          resizes do, the canary blocks autoscaler resizes while it runs,
          and each resize resets the loop's assumed mix *)
}

val default : params
(** The full macro-benchmark: seed 42, scale 3 (≥ 10⁶ simulated events),
    30-minute windows, 2–6 nodes, chaos MTBF 2 h / MTTR 60 s, 2 s
    deadline. *)

val smoke : params
(** A scaled-down preset for CI: same shape, ~3 % of the events. *)

type window_row = {
  hour : float;
  rate_per_10min : float;  (** scaled offered rate *)
  nodes : int;
  w_offered : int;
  w_completed : int;
  w_shed : int;
  w_p99_ms : float;
  migrating : bool;
  w_faults : int;
}

type result = {
  params : params;
  report : Cdbs_telemetry.Slo_report.t;
  windows : window_row list;
  events : int;  (** total simulator events processed over the day *)
  wall_s : float;
      (** process CPU seconds for the whole run (the simulation is
          CPU-bound, so this tracks wall clock) *)
  events_per_s : float;  (** events / wall_s *)
  sink : Cdbs_telemetry.Sink.t;  (** the day's metrics and trace *)
}

val run :
  ?params:params -> ?monitor:Cdbs_analysis.Monitor.t -> unit -> result
(** [monitor] watches the day's whole event stream (it is attached to the
    result's sink before the first window and left attached, so
    {!Cdbs_analysis.Monitor.report} includes ring-overflow findings);
    under active debug invariants any protocol violation fails the run
    loudly at the offending window's end. *)

val to_json : ?monitor_violations:int -> result -> string
(** The BENCH_day.json payload: parameters, SLO report, wall clock and
    events/sec, one line.  The top level carries the cross-subcommand
    [trace_dropped] / [monitor_violations] pair (the latter defaults to 0
    when no monitor was attached) under the same field names the [chaos]
    and [overload] subcommands emit. *)

val print_all : unit -> unit
(** Human-readable rendering of a default-parameter run: per-window
    table, SLO report, throughput line. *)
