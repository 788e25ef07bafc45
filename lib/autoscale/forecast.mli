(** Periodic workload forecasting (paper Sec. 5: "predictably changing
    workloads ... in the form of periodic changes such as daily patterns").

    Learns a per-window-of-day profile with an exponentially weighted
    moving average; after one observed period it predicts the load of any
    upcoming window, letting the autoscaler provision {e before} the
    morning ramp instead of reacting to the first overloaded window. *)

type t

val create : windows_per_day:int -> unit -> t
(** An empty profile; observations of a window are smoothed with an
    EWMA factor of 0.5. *)

val observe : t -> window:int -> rate:float -> unit
(** Record the observed request rate of a window (index modulo the
    period). *)

val predict : t -> window:int -> float option
(** Predicted rate for the window, [None] before any observation of that
    window-of-day. *)

val coverage : t -> float
(** Fraction of the period's windows with at least one observation. *)
