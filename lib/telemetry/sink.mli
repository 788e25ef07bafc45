(** A telemetry sink bundles a metrics registry with a trace ring.

    Instrumented code takes a [Sink.t option]; passing [None] keeps the
    instrumented path free of telemetry work, so legacy behaviour (and
    bit-identical outputs) are preserved when observation is off.  The
    [cn]/[push]/[ev] helpers make call sites one-liners that are no-ops on
    [None]; a per-request call site also skips building its event when the
    sink is off. *)

type t = { metrics : Metrics.t; trace : Trace.t }

val create : ?capacity:int -> unit -> t
(** Fresh sink; [capacity] bounds the trace ring (default 4096). *)

val cn : t option -> string -> int -> unit
(** Add [n] to a named counter (no-op on [None]). *)

val push : t option -> Trace.event -> unit
(** Record a typed trace event (no-op on [None]). *)

val ev : t option -> at:float -> string -> (string * Trace.value) list -> unit
(** Emit a free-form trace event (no-op on [None]).
    @raise Invalid_argument when a {!Trace.event} constructor owns the
    name, whether or not the sink is on. *)
