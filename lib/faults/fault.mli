(** Typed fault timelines for the cluster simulator.

    A fault schedule is a time-ordered list of events injected into an
    open-mode run.  Event semantics:

    - [Crash b]: backend [b] leaves the cluster.  Work in flight or queued
      on it is cancelled; reads are retried on surviving replicas under the
      run's {!Retry.policy}; updates keep flowing ROWA to the survivors
      while the crashed backend's replicas go stale (their missed update
      volume accumulates in a delta journal).
    - [Recover b]: backend [b] rejoins.  It first catches up — replaying
      the update volume it missed while down — during which it accepts
      updates but serves no reads; once caught up it is re-admitted fully.
    - [Slowdown]: backend [b] serves at [factor] times its normal service
      time for [duration] seconds (a degraded-but-alive node: overloaded
      disk, failing NIC, noisy neighbour).
    - [Partition]: the listed backends are cut off the network for
      [duration] seconds while their processes keep running.  Unlike a
      crash, in-flight reads on them {e time out} before failing over
      (slow-failure, not fast-failure), and on heal each backend is fenced
      behind a fresh monotonic epoch: it replays missed deltas before it
      may serve reads again, so a stale minority can never answer after
      the majority moved on (split-brain prevention).
    - [ZoneOutage]: every backend of a fault domain crashes at once and
      recovers together [duration] seconds later — the correlated-failure
      mode a {!Cdbs_core.Topology}-aware allocation is built to survive.
      Requires a topology ([validate ~zone_of], and the simulator's
      [?topology]) to resolve the zone to its member backends.
    - [Workload_shift]: from this instant the offered workload follows a
      new class mix — drift treated as a fault class.  The simulator
      replays a pre-generated request stream, so the engine only
      announces the shift (a ["workload.shift"] trace event for monitors
      and online estimators); the {e driver} that generates arrivals
      window by window (the drift experiment, [cdbs_cli autotune])
      interprets the new mix when it draws the following windows'
      requests.  Targets no backend.

    Schedules are plain data so they can be generated ({!Chaos}), stored,
    printed and validated independently of the simulator executing them. *)

type event =
  | Crash of int  (** backend index *)
  | Recover of int
  | Slowdown of { backend : int; factor : float; duration : float }
  | Partition of { backends : int list; duration : float }
      (** sorted, de-duplicated backend indices *)
  | ZoneOutage of { zone : int; duration : float }
  | Workload_shift of { mix : (string * float) list }
      (** the class mix in force from this instant on *)

type timed = { at : float; event : event }

type schedule = timed list
(** Time-ordered ({!sort} enforces it; the simulator re-sorts anyway). *)

val crash : at:float -> int -> timed
val recover : at:float -> int -> timed

val slowdown :
  at:float -> backend:int -> factor:float -> duration:float -> timed
(** @raise Invalid_argument when [factor < 1.] or [duration <= 0.]. *)

val partition : at:float -> backends:int list -> duration:float -> timed
(** Backends are sorted and de-duplicated.
    @raise Invalid_argument on an empty list or [duration <= 0.]. *)

val zone_outage : at:float -> zone:int -> duration:float -> timed
(** @raise Invalid_argument when [zone < 0] or [duration <= 0.]. *)

val workload_shift : at:float -> mix:(string * float) list -> timed
(** @raise Invalid_argument on an empty mix, a non-finite or negative
    weight, or weights summing to zero. *)

val sort : schedule -> schedule
(** Stable sort by timestamp ([Float.compare], not polymorphic compare). *)

val validate :
  ?zone_of:int array -> num_backends:int -> schedule -> (unit, string) result
(** Structural checks: event times non-negative (and not NaN), backend
    indices in range, slowdown parameters sane,
    per-backend crash/recover alternation (no crash of a crashed backend,
    no recover of a running one), no overlapping [Slowdown] windows on
    the same backend, and — for the correlated kinds — no event targeting
    a backend inside an active [Partition]/[ZoneOutage] window (the
    simulator keeps a single partition-state per backend, so overlapping
    cuts would silently merge; a window may start exactly when the
    previous one ends), no partitioning of an already-down backend, and
    no [ZoneOutage] without [?zone_of] (the zone-to-backend map, e.g.
    a copy of [Topology]'s assignment; zone outages cannot be resolved —
    or simulated — without one).  [Workload_shift] mixes must be
    non-empty with finite, non-negative weights summing above zero. *)

val pp_timed : timed Fmt.t
