(** Streaming runtime verification over simulation traces.

    The static verifier (PR 2) proves properties of {e plans}; this
    module proves properties of {e runs}.  A monitor subscribes to a
    {!Cdbs_telemetry.Trace} (via {!Cdbs_telemetry.Trace.subscribe}, so it
    observes every event, not just the bounded ring) and evaluates a
    library of temporal invariants over the protocol state machines the
    fault engine, the resilience stack and the migration runner execute —
    the simulation-world equivalent of a thread/address sanitizer for the
    serving stack.  {!observe} matches every {!Cdbs_telemetry.Trace.event}
    constructor by name, with no catch-all case, so a new event kind does
    not compile until the monitor decides what it means.  Violations are
    reported as {!Diagnostic.t} values under the [TRC*] namespace:

    - [TRC001] crash of an already-crashed backend
    - [TRC002] recovery of a backend that is not down
    - [TRC003] work booked on a crashed backend (no-op-while-down
      causality)
    - [TRC004] breaker transition off the legal
      Closed→Open→Half-open graph
    - [TRC005] rejoin not gated on delta catch-up: a read served on a
      stale backend, or a catch-up completion with none pending
    - [TRC006] live replicas below the expand-then-contract floor during
      a live migration
    - [TRC007] retry chain not progressing: attempt counter not
      increasing, deadline budget not decreasing, or a retry scheduled in
      the past
    - [TRC008] conservation broken at end of run
      ([completed + aborted = offered], shed/timeouts within aborted,
      updates never over-completed)
    - [TRC009] hedge accounting: a hedge win with no armed hedge (or
      after its arm was consumed), wins exceeding hedges, or a hedge
      armed to fire in the past
    - [TRC010] span pairing: an [.end] event without a matching [.start],
      or a negative span duration (free-form events; a typed
      ["control.reallocate.start"] also opens its span)
    - [TRC011] event sanity: non-finite or negative timestamp, or a
      negative service interval
    - [TRC012] (warning) the attached trace ring overflowed — the
      retained ring is a suffix; monitors still saw every event
    - [TRC013] partition lifecycle: work booked on a partitioned backend
      (nothing may reach an isolated node), a partition of an
      already-down or already-partitioned backend, a heal of a
      non-partitioned backend, or a partitioned backend rejoining via
      plain recovery (bypassing the heal fence)
    - [TRC014] fencing epochs not monotonic: a heal whose epoch does not
      strictly exceed the backend's previous epoch, or a fence lift
      carrying a different epoch than its heal minted
    - [TRC015] fenced until caught up: a read served on a fenced backend
      (stale serve after a partition heal — split-brain), a fence lift of
      a backend that is not fenced, or a fenced backend completing
      catch-up without lifting its fence
    - [TRC016] no overlapping reallocations: a ["control.reallocate.start"]
      while another reallocation is in flight, a drift trigger fired
      mid-reallocation, or a commit/rollback that names no (or the wrong)
      in-flight reallocation
    - [TRC017] cooldown respected: a ["control.trigger"] timestamped
      inside the post-action cooldown window its own [cooldown_s]
      attribute declares (measured from the last commit or rollback)
    - [TRC018] every rollback pairs with a breach: a ["control.rollback"]
      with no ["control.breach"] observed since its reallocation started

    Monitors are pure observers: they never emit into the trace and never
    perturb the run.  Protocol state (which backends are down or stale,
    breaker states, retry chains, span balances) resets at each
    ["run.start"] event, so one monitor can watch many sequential runs on
    a shared sink — diagnostics accumulate across runs.  Control-loop
    state (TRC016–018) deliberately survives ["run.start"]: a control
    session spans many windows, each of which is its own simulator run;
    it resets only at ["control.session"]. *)

type t

val create : unit -> t

val observe : t -> Cdbs_telemetry.Trace.event -> unit
(** Feed one event.  Normally called via the trace subscription
    ({!attach}); exposed directly so corrupted or synthetic traces can be
    replayed in tests. *)

val attach : t -> Cdbs_telemetry.Sink.t -> bool
(** Subscribe the monitor to the sink's trace.  Returns [true] when the
    monitor was newly attached, [false] when it was already watching that
    trace (attachment is idempotent per trace, so a caller-attached
    monitor passed again to the simulator is not double-subscribed). *)

val detach : t -> Cdbs_telemetry.Sink.t -> unit
(** Undo {!attach}; a monitor that is not attached is left alone. *)

val events_seen : t -> int
(** Events observed so far, across all attachments and runs. *)

val violations : t -> int
(** Error-severity violations recorded so far (cheap; no list walk). *)

val clean : t -> bool
(** [violations t = 0]. *)

val report : t -> Diagnostic.t list
(** All diagnostics in {!Diagnostic.sort} order, including end-of-stream
    findings (ring-overflow warnings for still-attached traces).  Per
    code, only the first occurrences are kept verbatim (a corrupted
    trace can violate one invariant millions of times); an info
    diagnostic marks the suppression point. *)

val check_exn : context:string -> t -> unit
(** @raise Failure with the rendered report when {!violations} is
    positive — the fail-loudly hook behind debug invariants. *)
