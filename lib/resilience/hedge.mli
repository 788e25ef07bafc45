(** Hedged reads ("The Tail at Scale").

    A read whose expected completion time exceeds the hedge delay gets a
    speculative second dispatch to the next-best replica; the first
    completion wins and the loser is cancelled on the event clock.  The
    hedge delay adapts to the observed read-latency distribution: it is
    the configured percentile of the recent read latencies, floored at
    [min_delay] so a cold tracker never hedges everything.

    Latencies are tracked in two rotating {!Cdbs_telemetry.Histogram}
    windows (current + previous), so [observe] is O(1), [delay] needs no
    sorting, and the tracked population stays bounded between [window]
    and [2 * window] recent observations. *)

type policy = {
  percentile : float;  (** latency percentile that sets the hedge delay *)
  min_delay : float;  (** floor for the hedge delay (seconds) *)
  min_observations : int;
      (** observations required before the percentile is trusted *)
  window : int;  (** rotation size of the latency windows *)
}

val default : policy
(** p95 delay, 50 ms floor, 20 observations, 256-slot reservoir. *)

type t
(** A latency tracker (mutable rotating histogram windows). *)

val create : policy -> t

val observe : t -> float -> unit
(** Record a completed read latency. *)

val observations : t -> int
(** Number of latencies currently tracked (bounded by [2 * window]). *)

val delay : t -> float
(** Current hedge delay: [max min_delay (percentile of the tracked
    latencies)] once [min_observations] latencies are present, else
    [min_delay]. *)
