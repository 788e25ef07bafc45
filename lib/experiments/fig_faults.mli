(** Fault injection experiment: graceful degradation under crashes and the
    crash / recover / self-repair lifecycle.

    Two views:
    - a {e degradation grid} over k-safety degrees 0..2: crash 0..3
      backends mid-run (no recovery) and measure availability, aborts,
      retries and tail latency — with [crashes <= k] the allocation absorbs
      every crash (availability 1.0, zero aborts, only retried latency);
    - a {e lifecycle timeline} on a k=1 cluster: one backend crashes,
      recovers and catches up through the delta journal, while the
      allocation-level repair loop restores effective k on the survivors. *)

type report = {
  timeline : Common.point list;
      (** phases ["before"], ["down"], ["catchup"] and ["after"] *)
  crashed_backend : int;
      (** the victim: the backend whose loss drops effective k furthest *)
  crash_at : float;
  recovered_at : float;
  caught_up_at : float;  (** when the rejoined backend took reads again *)
  replayed_mb : float;  (** missed update volume replayed at rejoin *)
  availability : float;
  errors : int;
  retried_requests : int;
  retries : int;
  effective_k_before : int;
  effective_k_down : int;  (** after the crash, before repair *)
  effective_k_repaired : int;
  repair_mb : float;  (** shipped to survivors to restore k-safety *)
  time_to_repair : float;  (** [repair_mb / repair_bandwidth] *)
}

val scenario : ?monitor:Cdbs_analysis.Monitor.t -> unit -> report
(** The k=1 lifecycle on 4 backends, 30 requests/s for 300 s (seed 11):
    the most critical backend crashes at 100 s, recovers at 200 s and
    catches up; {!Cdbs_core.Ksafety.repair} then restores effective k on
    the survivors (verified diagnostic-clean when debug checks are
    active), shipping at 2 MB/s. *)

val print_all : unit -> unit
