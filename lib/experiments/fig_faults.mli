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

type row = {
  k : int;  (** k-safety degree the allocation was built for *)
  crashes : int;  (** backends crashed mid-run, never recovered *)
  availability : float;  (** completed / offered *)
  aborted : int;
  retried : int;  (** distinct reads that needed at least one retry *)
  retries : int;  (** total retry attempts *)
  avg_ms : float;
  p99_ms : float;
}

type point = Common.point = {
  t0 : float;  (** bucket start, seconds *)
  t1 : float;
  avg_ms : float;
  n : int;
  phase : string;  (** ["before"], ["down"], ["catchup"] or ["after"] *)
}

type report = {
  grid : row list;  (** empty in {!scenario}'s report *)
  timeline : point list;
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

val scenario :
  ?nodes:int ->
  ?rate_per_s:float ->
  ?duration:float ->
  ?buckets:int ->
  ?seed:int ->
  ?repair_bandwidth:float ->
  ?monitor:Cdbs_analysis.Monitor.t ->
  unit ->
  report
(** The k=1 lifecycle: the most critical backend crashes at [duration/3],
    recovers at [2*duration/3] and catches up; {!Cdbs_core.Ksafety.repair} then restores
    effective k on the survivors (verified diagnostic-clean when debug
    checks are active). *)

val print_all : unit -> unit
