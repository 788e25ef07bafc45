(** Allocation invariants — an independent re-statement of the paper's
    structural constraints, checked against any allocation regardless of
    which algorithm or representation produced it.  Each rule is written
    once, as indexed scans over a {!Cdbs_core.Dense} state; {!check} runs
    them on the state an {!Cdbs_core.Allocation.t} is a view over.

    Codes:
    - [ALC001] (error)   negative assignment
    - [ALC002] (error)   locality, Eq. 8: class assigned to a backend that
                         does not hold all its fragments
    - [ALC003] (error)   read-weight conservation, Eq. 9: per-backend
                         shares of a read class do not sum to its weight
    - [ALC004] (error)   ROWA pinning, Eq. 10: an update class overlaps a
                         backend's data but is not pinned there at full
                         weight
    - [ALC005] (error)   an update class carries weight on a backend that
                         holds none of its data
    - [ALC006] (error)   Eq. 11: an update class with positive weight is
                         allocated nowhere
    - [ALC009] (error)   k-safety: a query class is held by fewer than
                         [k+1] live backends (only with [~k > 0]; with
                         fewer than [k+1] live backends no placement is
                         k-safe)
    - [ALC010] (warning) k-safety, Eq. 46: a fragment some class
                         references is stored fewer than [k+1] times (only
                         with [~k > 0])
    - [ALC011] (warning) dead storage: a backend holds a fragment no class
                         assigned on it references (prune would drop it;
                         suppressed when [~k > 0] — standby replicas are
                         intentional there)
    - [ALC012] (info)    idle backend: holds no fragment and carries no
                         assigned load
    - [ALC013] (error)   domain spread: a query class's replicas span
                         fewer than [min (k+1, zones)] fault domains — a
                         single zone outage takes out every copy (only
                         with [~topology] and [~k > 0]; zones count when
                         they hold a live backend)
    - [ALC014] (error)   the given [topology] does not cover exactly the
                         allocation's backends; the spread checks are
                         skipped
    - [ALC015] (warning) diagnostic overflow: a code had more than 100
                         findings; the first 100 are kept

    ALC010 and ALC011 name a fragment by {!Cdbs_core.Fragment.name} when
    the instance has materialized fragments, and as [#index] otherwise.
    Findings that share a code and a subject come in ascending backend
    and fragment order; {!Diagnostic.sort} orders a report. *)

open Cdbs_core

val check_dense : ?k:int -> ?topology:Topology.t -> Dense.t -> Diagnostic.t list
(** [k] defaults to 0 (no k-safety checks).  [topology] enables the
    domain-spread checks: ALC014 always, ALC013 when [k > 0].  Retired
    backends and tombstoned classes are skipped. *)

val check : ?k:int -> ?topology:Topology.t -> Allocation.t -> Diagnostic.t list
(** [check_dense] on {!Cdbs_core.Allocation.state}: nothing is compiled. *)

val check_exn :
  ?k:int -> ?topology:Topology.t -> context:string -> Allocation.t -> unit
(** Raise {!Cdbs_core.Invariants.Violation} listing all error-severity
    findings of {!check}, in the order it reports them; warnings and
    infos are ignored.  The assertion form used by debug-mode call
    sites. *)
