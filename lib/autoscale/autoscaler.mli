(** Autonomic elastic CDBS over the e-learning day trace (paper Sec. 5).

    Replays the 24-hour request profile in measurement windows; after each
    window the policy may change the backend count, in which case a new
    allocation is computed for the new cluster size and deployed via
    Hungarian matching (scale-out pads with empty virtual backends,
    scale-in decommissions the matched leftovers).  A static cluster of the
    maximum size runs alongside as the paper's comparison baseline. *)

type window_report = {
  hour : float;  (** window start, hours since midnight *)
  rate : float;  (** offered requests per 10 minutes (scaled trace) *)
  nodes : int;  (** active backends during the window *)
  avg_response_scaled : float;  (** seconds, autonomic cluster *)
  avg_response_static : float;  (** seconds, static max-size cluster *)
  transfer_mb : float;  (** data shipped by a reallocation in this window *)
}

type summary = {
  windows : window_report list;
  avg_response : float;  (** day-average response time, autonomic *)
  max_response_window : float;  (** worst windowed average *)
  reallocations : int;
  total_transfer_mb : float;
}

val simulate_day :
  ?window_minutes:float ->
  ?scale:float ->
  rng:Cdbs_util.Rng.t ->
  unit ->
  summary
(** Defaults: 10-minute windows, trace scaled by 40 (the paper's factor,
    max load ≈ 250–300 queries/s).  Scaling follows {!Policy.create}. *)

val simulate_days :
  ?window_minutes:float ->
  ?scale:float ->
  ?predictive:bool ->
  ?days:int ->
  rng:Cdbs_util.Rng.t ->
  unit ->
  summary list
(** Multi-day run, one summary per day.  With [predictive] (default false)
    a {!Forecast} learns the daily rate profile; once a window-of-day has
    been observed, the cluster is sized for the {e predicted} rate of the
    upcoming window (60 queries/s per backend at the target utilization),
    with the reactive policy still acting as a safety net.  Day 2 onward
    thus avoids the ramp-chasing spikes of purely reactive scaling (paper
    Sec. 5, periodic workloads). *)
