(** The serving driver behind the window loops of {!Fig_day} and
    {!Fig_drift}.

    A window loop serves a run as a sequence of open-loop simulator runs
    ({!Cdbs_cluster.Simulator.run_open_with_faults}) on one telemetry
    sink, under the full defense stack ({!Fig_overload.defenses}).  The
    driver owns that sink, the optional {!Cdbs_control.Loop}, the serving
    placement and the copy contention queued for the next window; the
    caller owns the windows' clocks, requests, chaos and random streams.

    Migrations are emulated: {!migrate} (and a control cutover or
    rollback in {!observe}) swaps the placement at once and models the
    copy traffic as [Slowdown] faults, queued until the next {!serve}
    and clipped to one window.  A backend left down at a window boundary
    rejoins with the next window.

    The report reads the simulator's counters off the sink ([sim.offered],
    [sim.completed], [sim.shed], [sim.aborted], [sim.retries],
    [sim.hedged], [sim.events] and the [sim.response_s] histogram); the
    driver itself accumulates only what the sink does not hold: wasted
    work, per-backend busy time, bytes moved, and the migration and fault
    counts. *)

type t

val create :
  ?monitor:Cdbs_analysis.Monitor.t ->
  ?control:Cdbs_control.Loop.config ->
  trace_capacity:int ->
  deadline_s:float ->
  bandwidth_mb_s:float ->
  copy_slowdown:float ->
  window_s:float ->
  backends:int ->
  Cdbs_core.Allocation.t ->
  t
(** A driver serving the given placement.  [monitor] is attached to the
    new sink before the control loop (run with [control]) is created, so
    it sees the loop's [control.session] event, and it stays attached.
    [bandwidth_mb_s] throttles migration copies, [copy_slowdown] inflates
    foreground service on copying backends, [window_s] clips their
    contention, and utilization covers backends [0 .. backends - 1]. *)

val migrate : t -> at:float -> Cdbs_core.Allocation.t -> unit
(** Deploy a placement chosen outside the control loop (an autoscaler
    resize) as a migration starting at [at]: its [migration.start] event
    carries [from_nodes] and [to_nodes], and the loop, if any, adopts the
    placement's weights as its assumed mix.
    @raise Invalid_argument while a control cutover's canary runs
    ({!Cdbs_control.Loop.set_allocation}). *)

val serve :
  t ->
  rng:Cdbs_util.Rng.t ->
  config:Cdbs_cluster.Simulator.config ->
  faults:Cdbs_faults.Fault.timed list ->
  Cdbs_cluster.Request.t list ->
  Cdbs_cluster.Simulator.fault_outcome * int
(** Serve one window on the current placement under the queued copy
    contention followed by [faults] (stably sorted by time), and return
    its outcome with the number of faults it ran under. *)

val observe :
  t ->
  at:float ->
  p99_s:float ->
  Cdbs_cluster.Simulator.fault_outcome ->
  Cdbs_control.Loop.directive
(** Hand a served window's p99 and availability to the control loop and
    carry out its directive: a cutover or rollback migrates at [at].
    [Stay] without a loop. *)

val report : t -> duration_s:float -> Cdbs_telemetry.Slo_report.t
(** The run's SLO report over [duration_s]; detaches the control loop. *)

val events : t -> int
(** Simulator events processed over every window served. *)

val sink : t -> Cdbs_telemetry.Sink.t
val loop : t -> Cdbs_control.Loop.t option
val allocation : t -> Cdbs_core.Allocation.t
(** The placement serving now. *)

val crash_chaos :
  rng:Cdbs_util.Rng.t ->
  num_backends:int ->
  mtbf:float ->
  mttr:float ->
  t0:float ->
  window_s:float ->
  Cdbs_faults.Fault.timed list
(** One window's chaos from [t0] on: crash/recover renewals with at most
    one backend down at a time, and no slowdowns, so that a migration's
    contention never overlaps another slowdown on a backend. *)
