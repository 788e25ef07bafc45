(** Online per-class cost/rate estimator.

    Harvests measured service times and class frequencies straight off a
    telemetry trace: every ["backend.serve"] event whose attributes carry
    a ["cls"] tag (reads — the simulator stamps them) contributes one
    sample to the current window.  {!end_window} folds the window into
    exponentially-decayed per-class aggregates (half-life measured in
    windows), so the measured mix tracks drift while smoothing over
    single-window noise.  Update classes are ROWA-pinned and never
    routed by weight, so only the read mix is estimated; {!merge_into}
    leaves update weights untouched.

    Estimators are pure observers (like {!Cdbs_analysis.Monitor}): they
    subscribe to the full event stream and never emit into the trace. *)

type t

val create : ?half_life_windows:float -> unit -> t
(** [half_life_windows] (default 3) is the number of {!end_window}
    boundaries after which a sample's contribution halves.
    @raise Invalid_argument when it is not positive. *)

val attach : t -> Cdbs_telemetry.Sink.t -> bool
(** Subscribe to the sink's trace; [false] when already attached to it
    (idempotent per trace). *)

val detach : t -> Cdbs_telemetry.Sink.t -> unit

val end_window : t -> unit
(** Close the current measurement window: decay the aggregates and fold
    the window's raw counts in.  Classes that stopped arriving decay
    toward zero rather than holding a stale share. *)

val samples : t -> float
(** Decayed total sample mass in the aggregates (0 before any window
    with traffic has been closed). *)

val measured_mix : t -> (string * float) list
(** Decayed per-class shares of the measured {e service-time mass},
    normalized to sum 1 and sorted by class id; [[]] when nothing has
    been harvested.  Service mass (not raw counts) is what workload
    weights model — a cheap class served very often is not drift. *)

val merge_into : t -> Cdbs_core.Workload.t -> Cdbs_core.Workload.t
(** Blend the measured read mix into [w]'s static weights: each read
    class's share of the total read mass becomes
    [lambda * measured + (1 - lambda) * assumed] with
    [lambda = samples / (samples + 50)] (a thin measurement barely moves
    the static weights, a day of traffic dominates them).  Total read mass
    and all update weights are preserved, so a normalized workload stays
    normalized.  Returns [w] unchanged when no samples cover its
    classes. *)
