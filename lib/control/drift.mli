(** Drift detection: divergence between assumed and measured class mix,
    with a Schmitt-trigger threshold and a post-action cooldown.

    The {!score} is a weighted relative error over the class mix: for
    each class, [max(assumed, measured) * |measured - assumed| /
    max(assumed, 0.01)] — a class that doubled from 30% to 60% of the
    mix scores far higher than one that doubled from 0.5% to 1%, and the
    1% floor keeps a class the static model assumed away from exploding
    the ratio.  0 means the mixes agree; the diurnal night-shift in
    {!Cdbs_workloads.Trace} scores ≈ 5.

    Oscillation control is two independent guards:

    - {b hysteresis}: the detector trigger is edge-triggered (armed →
      fired); after firing it re-arms only once the score falls to
      [threshold - hysteresis] or below, so a score hovering at the
      threshold cannot re-fire every window, and a rolled-back (or
      rejected) plan is not retried until the mix leaves and re-enters
      the band;
    - {b cooldown}: {!action_done} (called after a commit, a rollback,
      or a rejected plan) suppresses triggers for [cooldown_s] of
      simulated time regardless of arming, bounding the control loop to
      at most one reallocation per cooldown window under any workload,
      including an adversarial flapping one. *)

type config = {
  threshold : float;  (** fire at [score >= threshold] *)
  hysteresis : float;  (** re-arm at [score <= threshold - hysteresis] *)
  cooldown_s : float;  (** post-action trigger suppression *)
}

val default : config
(** threshold 0.5, hysteresis 0.2, cooldown 7200 s. *)

val score :
  assumed:(string * float) list -> measured:(string * float) list -> float
(** Both mixes are re-normalized over the union of their classes, so raw
    (unnormalized) weights are accepted; a class missing from one side
    counts as share 0 there. *)

type t

val create : config -> t
(** Starts armed, with no cooldown pending.
    @raise Invalid_argument unless
    [0 < threshold], [0 <= hysteresis < threshold], [0 <= cooldown_s]. *)

val update : t -> now:float -> score:float -> bool
(** Feed one windowed score; [true] means the detector fired (trigger a
    reallocation attempt).  Firing disarms the detector. *)

val action_done : t -> now:float -> unit
(** Record that the loop acted (commit, rollback, or rejected plan) at
    [now]: triggers are suppressed until [now + cooldown_s]. *)

