(** Fault-timeline lints beyond {!Cdbs_faults.Fault.validate}
    ([FLT*] namespace).

    [Fault.validate] rejects structurally impossible schedules (crashing
    a crashed backend, overlapping slowdowns); these lints flag schedules
    and chaos parameters that are {e possible} but implausible or outside
    the availability guarantee the allocation was built for:

    - [FLT001] the schedule fails structural validation outright
    - [FLT002] a crash is never recovered (permanent failure — fine for a
      degradation study, surprising in a chaos run)
    - [FLT003] MTTR at or above MTBF (backends down more than up)
    - [FLT004] peak concurrent crashes exceed the allocation's k-safety
      degree (beyond the availability guarantee)
    - [FLT005] (info) chaos horizon shorter than the MTBF (the expected
      fault count per backend is below one)
    - [FLT006] extreme slowdown factor (indistinguishable from a crash,
      but invisible to crash-handling machinery)
    - [FLT007] a zero-length down window (crash and recovery at the same
      instant — a no-op fault)
    - [FLT008] chaos parameters out of range (the generator would reject
      or silently misbehave)
    - [FLT009] a correlated fault (partition / zone outage — or a chaos
      configuration with correlated failures over a single zone) isolates
      every backend at once: a whole-cluster blackout no placement can
      survive

    [k], where accepted, is the k-safety degree the workload's allocation
    guarantees; omit it to skip the guarantee cross-checks. *)

val check_schedule :
  ?k:int -> num_backends:int -> Cdbs_faults.Fault.schedule -> Diagnostic.t list
(** Lint a concrete timeline.  Runs {!Cdbs_faults.Fault.validate} first
    ([FLT001]); the remaining lints run only on valid schedules.
    [Partition] windows count toward the concurrent-down peak ([FLT004]) —
    a partitioned backend is as unreachable as a crashed one.  A zone
    outage needs a topology, so a schedule holding one fails validation. *)

val check_params : ?k:int -> Cdbs_faults.Chaos.params -> Diagnostic.t list
(** Lint a chaos-generator configuration ([FLT003]/[FLT004]/[FLT005]/
    [FLT006]/[FLT008]/[FLT009]). *)
