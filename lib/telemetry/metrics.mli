(** Metrics registry: named counters and histograms.

    A registry is the per-run (or per-subsystem) bag of instruments.
    Instruments are interned by name — asking twice for the same name
    returns the same instrument, so instrumentation sites don't need to
    thread instrument handles around. *)

type counter

type t

val create : unit -> t

val counter : t -> string -> counter
(** Intern a counter (starts at 0). *)

val add : counter -> int -> unit

val histogram : t -> string -> Histogram.t
(** Intern a histogram; later lookups return the existing instrument. *)

val find_counter : t -> string -> int option
val find_histogram : t -> string -> Histogram.t option
