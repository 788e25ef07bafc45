(** Per-backend health tracking and circuit breakers.

    Crash-stop faults already remove a backend from the scheduler's live
    set, but a {e gray} failure — a backend that is slow yet alive — is
    invisible to routing.  The breaker watches two signals per backend:

    - a latency EWMA compared against the median EWMA of its peers
      (a backend whose smoothed latency exceeds [latency_factor] times the
      peer median is tripped), and
    - an error-rate sliding window (a window with at least
      [error_threshold] failures trips the breaker).

    The state machine is the classic three-state breaker:

    {v
        Closed --(latency or error trip)--> Open
        Open --(cool_down elapsed)--> Half_open
        Half_open --(probes consecutive healthy completions)--> Closed
        Half_open --(slow or failed probe)--> Open
    v}

    [allows] is the routing-side query: it is read-only apart from the
    time-based Open -> Half_open transition, so schedulers may probe every
    candidate during selection without corrupting probe accounting.
    Probe accounting happens only in [record_success]/[record_failure].

    Closing a breaker resets the backend's latency statistics so a stale
    EWMA from the bad period cannot immediately re-trip it. *)

type state = Cdbs_telemetry.Trace.breaker_state = Closed | Open | Half_open
(** The trace's breaker state, so a transition is traced as it is;
    {!Cdbs_telemetry.Trace.breaker_label} gives its wire name. *)

type config = {
  ewma_alpha : float;  (** smoothing factor in (0, 1] for the latency EWMA *)
  latency_factor : float;
      (** trip when own EWMA exceeds this multiple of the peer median *)
  min_samples : int;  (** samples required before the latency trip can fire *)
  error_window : int;  (** size of the per-backend outcome window *)
  error_threshold : float;
      (** failure fraction in a full window that trips the breaker *)
  cool_down : float;  (** time (clock units) spent Open before probing *)
  probes : int;  (** consecutive healthy completions to close from Half_open *)
}

val default_config : config

type t

val create :
  ?config:config -> ?on_transition:(backend:int -> state -> unit) -> int -> t
(** [create n] tracks [n] backends, all Closed.  [on_transition] is
    invoked at every state change with the backend and its {e new} state
    — the observation hook telemetry hangs breaker-transition trace
    events on.  It must not call back into the breaker. *)


val state : t -> backend:int -> state
(** Raw state, without the time-based Open -> Half_open transition. *)

val allows : t -> backend:int -> now:float -> bool
(** Whether routing may send a request to [backend] at [now].  An Open
    breaker whose cool-down has elapsed transitions to Half_open and
    admits the probe. *)

val record_success : t -> backend:int -> now:float -> latency:float -> unit
(** Feed a completed request's latency.  May trip a Closed breaker (EWMA
    vs. peers) or advance/abort a Half_open probe sequence: a probe is
    healthy when its own latency is within [latency_factor] times the peer
    median. *)

val record_failure : t -> backend:int -> now:float -> unit
(** Feed a failed request.  May trip via the error window; any failure in
    Half_open reopens immediately. *)

val force_open : t -> backend:int -> now:float -> unit
(** Operator override: trip regardless of statistics. *)

val trips : t -> int
(** Total transitions into Open since [create]. *)
