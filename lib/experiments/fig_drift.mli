(** Workload drift experiment: self-tuning vs static allocation.

    Two arms serve byte-identical per-window request streams on the same
    cluster.  The {e static} arm keeps the allocation planned for the
    early-afternoon class mix; the {e tuned} arm runs the
    {!Cdbs_control.Loop} control loop (measured mix off the trace →
    drift score → guarded reallocation → canary).  The true mix follows
    the diurnal schedule until [step_window], then step-changes to the
    3 am quiz-batch mix (B-dominant) {e permanently} — the adversarial
    case where the static model's assumption never comes back.  With
    [chaos] the arms additionally share per-window crash/recover
    renewals and a seeded {!Cdbs_faults.Chaos} workload-shift stream
    (drift and crashes together).

    Headline: the tuned arm beats the static arm on {e both} run-level
    p99 and availability ({!verdict}). *)

type params = {
  seed : int;
  windows : int;
  window_minutes : float;
  nodes : int;
  rate_per_10min : float;
  step_window : int;
  deadline_s : float;
  bandwidth_mb_s : float;
  copy_slowdown : float;
  scan_seconds_per_mb : float;
  chaos : bool;
  mtbf : float;
  mttr : float;
  shift_mtbf : float;
  trace_capacity : int;
  control : Cdbs_control.Loop.config;
}

val control_default : Cdbs_control.Loop.config
(** {!Cdbs_control.Loop.default} tightened for window-scale experiments:
    threshold 1.0, hysteresis 0.4, cooldown 3600 s, k = 1. *)

val default : params
val smoke : params
(** CI-sized variant (shorter windows, lower rate), still past the
    saturation knee so the headline ordering is preserved. *)

type window_row = {
  hour : float;
  w_offered : int;
  w_completed : int;
  w_shed : int;
  w_p99_ms : float;
  w_action : string;  (** "", ["cutover"] or ["rollback"] *)
  w_faults : int;
}

type arm = {
  report : Cdbs_telemetry.Slo_report.t;
  rows : window_row list;
  sink : Cdbs_telemetry.Sink.t;
}

type result = {
  params : params;
  static_ : arm;
  tuned : arm;
  reallocations : int;
  rollbacks : int;
  commits : int;
  peak_drift : float;
  final_alloc : Cdbs_core.Allocation.t;
  events : int;
  wall_s : float;
  events_per_s : float;
}

val verdict : result -> bool
(** Tuned p99 <= static p99 AND tuned availability >= static
    availability. *)

val run :
  ?params:params -> ?monitor:Cdbs_analysis.Monitor.t -> unit -> result
(** A [monitor] is attached to {e both} arms' sinks up front, so it
    verifies the serving protocol and the control protocol
    (TRC016–018) of the whole experiment. *)

val to_json : ?monitor_violations:int -> result -> string
