(** The self-healing control loop: measured drift in, guarded live
    reallocation out, automatic rollback when the canary regresses.

    State machine (one {!observe_window} call per completed serving
    window):

    {v
    Idle/Observing --trigger+plan accepted--> Migrating (Cutover)
    Observing --trigger, plan rejected-----> Observing (cooldown)
    Migrating --window served--------------> Canary
    Canary --guardrail breach--------------> Rollback --> Observing
    Canary --windows clean-----------------> Commit ----> Observing
    v}

    The loop itself never migrates data: {!observe_window} returns a
    {!directive} and the {e driver} (an experiment harness, or
    [Controller.autotune]) executes the cutover or rollback with
    whatever migration machinery it owns, then keeps serving windows.
    This keeps the control policy free of any dependency on the cluster
    or simulator and makes every decision unit-testable.

    Per window the loop: closes the {!Estimator} window, scores the
    measured read mix against the incumbent allocation's assumed
    weights ({!Drift.score}), and when the detector fires builds a typed
    [Reweight] delta per drifted class, repairs the incumbent under a
    bounded rebalance budget ({!Cdbs_core.Incremental.repair} with
    [~balance:true]), and accepts the candidate only when
    {!Cdbs_analysis.Check_allocation.check_dense} is free of errors AND
    its modeled cost ({!Cdbs_core.Dense.scale}) beats the incumbent
    (same reweights, no data movement) by [margin].  After a cutover the
    next [canary_windows] windows are the canary: a window whose
    availability drops below [min_availability], or whose p99 exceeds
    the pre-cutover baseline by [max_p99_ratio] (or [abs_p99_s]
    absolutely), breaches the guardrail and rolls back to the snapshot.

    Every decision is published on the sink as [control.*] trace events
    ([session], [trigger], [plan], [reallocate.start], [breach],
    [rollback], [commit]) — the protocol the monitor's TRC016–018
    invariants verify. *)

type guardrails = {
  max_p99_ratio : float;
      (** canary p99 ceiling, relative to the pre-cutover window *)
  abs_p99_s : float;  (** absolute canary p99 ceiling ([infinity] = off) *)
  min_availability : float;  (** canary availability floor *)
}

type config = {
  detector : Drift.config;
  guardrails : guardrails;
  min_samples : float;
      (** decayed sample mass required before scoring at all *)
  margin : float;  (** required modeled-cost win, e.g. 0.02 = 2% *)
  budget : int;  (** rebalance fragment-copy budget per reallocation *)
  canary_windows : int;  (** windows the canary watches before commit *)
  half_life_windows : float;  (** estimator decay half-life *)
  k : int;  (** k-safety preserved through repairs *)
}

val default : config

type directive =
  | Stay  (** keep serving under the current allocation *)
  | Cutover of { id : int; next : Cdbs_core.Allocation.t; moved_mb : float }
      (** execute the live reallocation to [next], then keep serving *)
  | Rollback of { id : int; prev : Cdbs_core.Allocation.t }
      (** guardrail breach: restore [prev] *)

type t

val create :
  ?config:config ->
  sink:Cdbs_telemetry.Sink.t ->
  allocation:Cdbs_core.Allocation.t ->
  unit ->
  t
(** Attach an estimator to [sink] and emit ["control.session"] (which
    also resets the monitor's TRC016–018 state).
    @raise Invalid_argument on a nonsensical config. *)

val observe_window :
  t -> at:float -> p99_s:float -> availability:float -> directive
(** Report one completed serving window ([p99_s]/[availability] are that
    window's measurements; the estimator harvested its serve events off
    the trace already).  Returns what the driver must do next. *)

val set_allocation : t -> Cdbs_core.Allocation.t -> unit
(** Tell the loop the driver changed the allocation outside the control
    path (e.g. an autoscaling resize).  The new allocation's weights
    become the assumed mix.
    @raise Invalid_argument while a reallocation is in flight. *)

val migrating : t -> bool
(** A cutover's canary is still running. *)

val reallocations : t -> int
(** Cutovers executed. *)

val rollbacks : t -> int
(** Cutovers undone by the canary. *)

val commits : t -> int
(** Cutovers kept. *)

val peak_score : t -> float
(** Max drift score observed. *)

val detach : t -> unit
(** Unsubscribe the estimator from the sink. *)
