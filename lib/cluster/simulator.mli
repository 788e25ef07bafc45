(** Cluster execution simulator.

    Replaces the paper's physical 16-node cluster: requests are dispatched
    by the least-pending-first scheduler onto single-server FIFO backends
    whose service times come from {!Cost_model}.  Reads run on one backend;
    updates run on every backend holding the touched data (ROWA).

    One event clock drives every entry point.  Requests stream past a
    priority queue of timed events; before each arrival the clock applies
    every queued event at or before its instant, so at equal instants
    faults and partition cuts go first, then a migration's copy starts,
    cutovers and drop barrier, then retries, hedges and catch-up
    completions, and the arrival last.  Queued events keep firing after
    the last arrival.  The entry points are configurations of that clock:
    - {!run_batch} offers every request at t = 0 in list order and reports
      makespan-based throughput — the mode behind the throughput/speedup
      figures (paper Sec. 4);
    - {!run_open} replays timestamped arrivals and reports response times —
      the mode behind the elastic-scaling experiment (Fig. 5);
    - {!run_open_with_faults} adds a fault timeline, retries and the
      overload defenses;
    - {!run_open_with_migration} adds a live rebalance (Sec. 3.4) whose
      copy starts, cutovers and drop barrier are events on the same queue.

    Batch, open and migration runs inject no faults and never retry: a
    request no live replica can serve is an error.  The clock keeps a
    record of in-flight bookings only when something in the run reads it:
    a [Crash], [Partition] or [ZoneOutage] in the fault timeline (which
    cancels queued work), admission control (which counts and evicts it)
    or hedging (which cancels the losing leg).  Outcomes never depend on
    whether the record is kept.  The record is one {!Bookings} queue per
    backend, flat arrays that a booking allocates nothing in; a read's
    booking holds its uid, attempt and class position, and a crash
    rebuilds the read's retry context from them and the arrival.

    No run pays for a percentile nobody reads: the outcome's
    [p50_response], [p95_response] and [p99_response] are selected from
    the completed responses when first forced. *)

type config = {
  cost : Cost_model.params;
  speeds : float array;
      (** per-backend speed relative to a reference node; [ [|1.;1.|] ] is
          a homogeneous 2-node cluster *)
  protocol : Protocol.t;
      (** how updates propagate to replicas (default {!Protocol.Rowa}) *)
}

val homogeneous_config : ?cost:Cost_model.params -> int -> config
(** [n] identical backends under {!Protocol.default}. *)

type outcome = {
  completed : int;  (** requests fully processed *)
  makespan : float;  (** time the last backend went idle *)
  throughput : float;  (** completed / makespan *)
  avg_response : float;  (** mean request response time (completion - arrival) *)
  max_response : float;
  p50_response : float Lazy.t;
      (** median response time (0 when none completed); like the two
          fields below, the nearest rank of the completed responses,
          selected on the first [Lazy.force] *)
  p95_response : float Lazy.t;
  p99_response : float Lazy.t;
      (** tail latency — what overload defenses target *)
  busy : float array;  (** per-backend busy seconds *)
  utilization : float array;  (** busy / makespan *)
  errors : int;  (** requests that could not be routed *)
}

val run_batch :
  config -> Cdbs_core.Allocation.t -> Request.t list -> outcome
(** All requests offered at time 0, dispatched in list order. *)

val sorted_by_arrival : Request.t list -> Request.t list
(** The stream every open-mode entry point below replays: the stable sort
    of the requests by [Float.compare] on arrival.  A stream already in
    arrival order, as {!Cdbs_workloads.Spec.uniform_requests} draws every
    timed stream, is returned as is after one O(n) pass that allocates
    nothing.  Any other stream is ordered in every run, through
    {!Cdbs_util.Stats.stable_order} on its unboxed arrival keys. *)

val run_open :
  config -> Cdbs_core.Allocation.t -> Request.t list -> outcome
(** Requests dispatched at their [arrival] timestamps, in the order of
    {!sorted_by_arrival}: open-mode time never runs backwards regardless
    of caller ordering. *)

(** {1 Fault injection} *)

type recovery = {
  rec_backend : int;
  crashed_at : float;
  recovered_at : float;  (** when the [Recover] event fired *)
  mutable caught_up_at : float;
      (** when the catch-up replay finished and reads were re-admitted;
          [nan] while pending (or forever, if the backend crashed again
          before finishing) *)
  replayed_mb : float;  (** missed update volume replayed at rejoin *)
}

type fault_outcome = {
  run : outcome;
      (** request-level outcome; [errors] counts aborted requests *)
  offered : int;  (** requests submitted *)
  availability : float;  (** completed / offered (1.0 when none offered) *)
  retried_requests : int;  (** distinct reads that needed at least one retry *)
  retries : int;  (** total retry attempts scheduled *)
  aborted : int;
      (** requests abandoned: retry budget exhausted, deadline passed, or
          (for updates) no live replica to commit on *)
  timeouts : int;  (** aborts caused by the per-request deadline *)
  shed : int;
      (** reads refused by admission control (a typed [Shed] outcome —
          included in [aborted], never updates) *)
  shed_updates : int;
      (** always 0: the engine never sheds updates; the field witnesses
          the ROWA-preservation invariant in reports *)
  hedged : int;  (** speculative second dispatches issued *)
  hedge_wins : int;  (** hedges that beat the primary leg *)
  breaker_trips : int;  (** circuit-breaker transitions into [Open] *)
  wasted_work : float;
      (** service seconds spent on doomed or losing work: reads served
          past their client's deadline and cancelled hedge legs *)
  offered_updates : int;  (** updates submitted *)
  completed_updates : int;  (** updates committed (ROWA on live replicas) *)
  cancelled_work : float;
      (** in-flight service seconds destroyed by crashes *)
  catch_up_mb : float;  (** total volume replayed across all rejoins *)
  recoveries : recovery list;  (** one per completed [Recover], in order *)
  downtime : float array;  (** per-backend seconds spent down *)
  max_concurrent_down : int;
  events : int;
      (** total events the clock processed (arrivals + faults + retries +
          hedges + catch-up completions) — the denominator of events/sec *)
  responses : (float * float) list;
      (** per completed request, [(original arrival, response)] in arrival
          order — responses of retried reads span the whole retry chain *)
}

val run_open_with_faults :
  ?rng:Cdbs_util.Rng.t ->
  ?resilience:Cdbs_resilience.Policy.t ->
  ?telemetry:Cdbs_telemetry.Sink.t ->
  ?monitor:Cdbs_analysis.Monitor.t ->
  ?topology:Cdbs_core.Topology.t ->
  config ->
  Cdbs_core.Allocation.t ->
  Request.t list ->
  faults:Cdbs_faults.Fault.schedule ->
  fault_outcome
(** Open-mode replay under a fault timeline, on a true event clock: fault
    events interleave with arrivals, retries, hedges and catch-up
    completions, and keep being applied after the last arrival (a late
    crash still cancels queued work).  Requests arrive in the order of
    {!sorted_by_arrival}.

    [Crash b] takes the backend out of service immediately: its in-flight
    and queued work is cancelled; cancelled reads are retried on surviving
    replicas under {!Cdbs_faults.Retry.default} (bounded attempts,
    exponential backoff, a deadline measured from the original arrival),
    except a read booked past its deadline, which its client has already
    abandoned and the run has already counted as timed out; cancelled
    replica writes are owed at rejoin.  While down, the update
    volume touching its replicas accrues in a {!Cdbs_migration.Delta}
    journal (ROWA keeps committing on the survivors).  [Recover b] brings
    it back {e stale}: it takes updates but serves no reads until the
    missed volume has been replayed through the journal cost model.
    [Slowdown] inflates the backend's service times by [factor] for
    [duration].

    [Partition] isolates its backends while their processes keep running:
    routing treats them as down, but in-flight reads {e time out} instead
    of failing fast — the retry fires one second after the cut, on top
    of the usual backoff (slow failure, the defining difference from a
    crash).  When the partition heals, each
    isolated backend bumps its monotonic {e fencing epoch} (emitted as
    ["backend.heal"] with [epoch] and [replay_mb]) and rejoins fenced:
    stale, replaying the update volume it missed through the delta
    journal, serving no reads until the catch-up completes and
    ["backend.fence_lift"] announces the fence is gone.  A backend that
    missed nothing lifts its fence at the heal instant.  This is the
    split-brain guard: a minority that kept running through a
    live-migration cutover on the majority side can never serve stale
    reads after the heal.

    [ZoneOutage] is the correlated failure a domain-aware placement is
    built for: every backend of the zone crashes at the same instant
    (ordinary crash semantics, bracketed by ["zone.outage"] /
    ["zone.heal"] trace events) and recovers together.  Zone faults
    require [topology] to resolve membership; passing a schedule with a
    [ZoneOutage] but no [topology] fails validation.  [topology], when
    given, must cover exactly the allocation's backends.

    [rng] (seeded, deterministic) enables the retry policy's backoff
    jitter; without it backoffs are exact.

    [telemetry] attaches an observation sink: the run's latency
    distribution and headline counters land in its metrics registry, and
    the request/backend lifecycle (crashes, recoveries, catch-ups,
    slowdowns, retries, sheds, hedges, breaker transitions) is emitted
    as trace events stamped with the simulated clock.  Telemetry is
    strictly an observer — with or without a sink the outcome is
    bit-identical.

    [monitor] attaches a {!Cdbs_analysis.Monitor} for the duration of the
    run: a ["run.start"] event resets its per-run protocol state, every
    booking is announced as ["backend.serve"], retries carry the
    remaining deadline budget, and a ["run.summary"] event closes the run
    with the conservation counters.  When no [telemetry] sink is given
    the monitor gets a small private one (the subscription sees every
    event regardless of ring capacity).  A monitor the caller already
    attached to [telemetry] is not re-attached (and not detached at the
    end).  Under active debug invariants ({!Cdbs_core.Invariants}) the
    run {e fails loudly}: any error-severity violation raises [Failure]
    with the rendered report; otherwise violations accumulate for the
    caller to {!Cdbs_analysis.Monitor.report}.  Like telemetry, the
    monitor never changes outcomes.

    [resilience] wires the overload/gray-failure defenses into the run
    (all off by default, reproducing the legacy engine exactly):
    - {e admission control} bounds each backend's queue; past the
      depth/latency watermark a read is shed — oldest queued read first,
      else the newcomer ([shed] in the report; updates are never shed);
    - {e circuit breakers} track per-backend latency EWMA and error rate
      and steer read routing around slow-but-alive backends (fail-open
      when every replica is open; updates are never steered);
    - {e hedged reads} arm a speculative second dispatch when a read's
      expected completion exceeds the adaptive hedge delay; the first leg
      to finish wins and the loser's unserved tail is cancelled;
    - {e deadline budgets} give each read an end-to-end budget from its
      original arrival.  Retries stop when the budget is exhausted
      (replacing the fixed attempt count), hedges that cannot meet it are
      not dispatched, and — with admission control on — reads quoted past
      it are refused up front instead of being served to an absent
      client.  Without admission control the doomed work is still booked
      and surfaces as [wasted_work] (congestion collapse).  Updates are
      exempt from every defense.

    The schedule is validated first ({!Cdbs_faults.Fault.validate});
    @raise Invalid_argument on an ill-formed schedule. *)

(** {1 Live migration} *)

type migration_outcome = {
  run : outcome;  (** request-level outcome over the whole run *)
  copied_mb : float;  (** background copy volume (= the plan's transfer) *)
  replayed_mb : float;  (** delta-journal volume replayed at cutovers *)
  copy_done : float;  (** when the last copy finished *)
  drops_at : float;  (** when the contract barrier released the old copies *)
  min_live_replicas : (string * int) list;
      (** per query class, the minimum number of simultaneously live full
          replicas observed at any point of the run — the k-safety audit *)
  target_deployed : bool;
      (** every physical node's final live set equals the plan's target *)
  responses : (float * float) list;
      (** per completed request, [(arrival, response)] in arrival order —
          the raw material of the degradation timeline *)
}

val run_open_with_migration :
  ?monitor:Cdbs_analysis.Monitor.t ->
  config ->
  target:Cdbs_core.Allocation.t ->
  schedule:Cdbs_migration.Schedule.t ->
  Request.t list ->
  migration_outcome
(** Open-mode replay {e while} the schedule's rebalance executes in the
    background.  Routing follows the live fragment sets: nodes start with
    the plan's old placement, gain fragments at each copy's cutover (after
    replaying the deltas captured while the copy was on the wire) and shed
    the no-longer-needed copies at the final drop barrier.  Requests
    arrive in the order of {!sorted_by_arrival}.  Each node's
    resident volume, which the cost model's cache factor reads, follows
    its live set.  Foreground service on a node actively copying (as
    source or destination) is inflated by a quarter.
    [config.speeds] must cover the plan's [num_physical] nodes.  Requests
    must reference classes of the [target] allocation's workload.  A read
    arriving at the instant of a cutover or of the drop barrier is routed
    on the placement that step produces.

    [monitor] mirrors {!run_open_with_faults}: the run opens
    with ["run.start"], announces each class's expand-then-contract
    replica floor as ["migration.floor"], emits ["migration.live"] after
    every migration event so the monitor can audit that live replicas
    never drop below the floor, announces every booking (delta replays as
    ["catchup"]) as ["backend.serve"], closes with ["run.summary"], and
    fails loudly under active debug invariants. *)
