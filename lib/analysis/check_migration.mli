(** Migration-plan invariants — an independent verifier for
    {!Cdbs_migration.Planner} plans, {!Cdbs_migration.Schedule} timelines
    and {!Cdbs_migration.Delta} journals.  It re-derives the
    expand-then-contract guarantees from the artifacts alone instead of
    trusting the planner's own bookkeeping.

    Plan codes:
    - [MIG001] (error)   move destination or source index out of range
    - [MIG002] (error)   move source does not hold the fragment it ships
    - [MIG003] (warning) redundant copy: the destination already holds the
                         fragment
    - [MIG004] (error)   drop victim not stored at the dropping backend
    - [MIG005] (error)   a fragment is both copied to and dropped at the
                         same backend
    - [MIG006] (error)   placement equation broken:
                         [(old ∪ copies) \ drops ≠ target] on some backend
    - [MIG007] (error)   bookkeeping drift: [copy_mb] differs from the sum
                         of move sizes
    - [MIG009] (error)   a class served before and after the migration
                         loses its last live replica mid-move
    - [MIG010] (warning) duplicate move (same fragment copied twice to the
                         same backend)

    Schedule codes:
    - [SCH001] (error)   non-positive bandwidth
    - [SCH002] (error)   a copy ships faster than the per-stream throttle
                         allows ([finish - start < size / bandwidth])
    - [SCH003] (error)   two copies overlap on one stream (same source or
                         destination busy twice at once)
    - [SCH004] (error)   the drop barrier fires before the last copy ends
    - [SCH005] (error)   the timed moves are not exactly the plan's moves
    - [SCH006] (error)   a copy starts before the schedule does

    Delta codes:
    - [DLT001] (error)   an open capture has no corresponding copy in the
                         plan (captured updates would never be replayed) *)

open Cdbs_core

val check_plan :
  workload:Workload.t -> Cdbs_migration.Planner.plan -> Diagnostic.t list
(** Verify plan structure and replay the step sequence (every copy, then
    the drop barrier) tracking each class's live replica count. *)

val check_schedule : Cdbs_migration.Schedule.t -> Diagnostic.t list
(** Verify the timed realization: throttle respected, streams serialized,
    drops after the last copy, moves consistent with the plan. *)

val check_plan_exn :
  context:string -> workload:Workload.t -> Cdbs_migration.Planner.plan -> unit
(** Raise {!Cdbs_core.Invariants.Violation} listing all error-severity
    findings of {!check_plan}. *)

val check_schedule_exn : context:string -> Cdbs_migration.Schedule.t -> unit
(** Raise {!Cdbs_core.Invariants.Violation} listing all error-severity
    schedule findings. *)
