(** Live migration experiment: response-time timeline while a rebalance
    executes in the background, and bytes shipped vs. a full rebuild.

    The scenario replays the e-learning trace's day mix against a cluster
    still allocated for the night mix; at [migrate_at] the live rebalancer
    starts deploying the day allocation under a bandwidth throttle.  The
    timeline shows the three phases: steady state before, degraded (but
    fully served — zero routing errors) during the copy, and the improved
    target allocation after. *)

type report = {
  timeline : Common.point list;
      (** 20 buckets, phases ["before"], ["copy"] and ["after"] *)
  copy_start : float;
  copy_done : float;
  copied_mb : float;  (** shipped by the live plan *)
  full_rebuild_mb : float;  (** a stop-the-world rebuild would ship this *)
  replayed_mb : float;  (** delta-journal volume replayed at cutovers *)
  before_ms : float;  (** mean response before the migration starts *)
  during_ms : float;  (** mean response while copies are in flight *)
  after_ms : float;  (** mean response once the target is deployed *)
  errors : int;
  min_live_replicas : int;
      (** minimum over classes of simultaneously live replicas *)
  target_deployed : bool;
}

val plan :
  ?nodes:int -> ?from_hour:float -> ?to_hour:float -> unit ->
  Cdbs_migration.Planner.plan
(** The migration plan of the scenario (the [cdbs migrate --show-plan]
    view): greedy allocation for the [from_hour] mix rebalanced to the
    [to_hour] mix. *)

val scenario :
  ?nodes:int ->
  ?bandwidth:float ->
  ?rate_per_s:float ->
  ?duration:float ->
  ?migrate_at:float ->
  ?seed:int ->
  ?from_hour:float ->
  ?to_hour:float ->
  unit ->
  report
(** Defaults: 4 nodes, 2 MB/s throttle, 40 requests/s over 600 s,
    migration starting at t = 150 s, night (4 h) to midday (14 h)
    allocations. *)

val print_all : unit -> unit
