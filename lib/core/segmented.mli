(** Time-segmented allocation for periodically changing workloads
    (paper Sec. 5, Fig. 6).

    The query history is cut into segments where the class mix is stable (a
    sliding window compares mix variance); each segment gets its own
    allocation, and the per-segment allocations are merged — aligning their
    backends with the Hungarian method so overlapping placements land on the
    same nodes — into one combined allocation that serves every segment's
    load shape without reallocation. *)

type segment = {
  start_time : float;
  end_time : float;
  journal : Journal.t;
}

val segment_journal :
  window:float -> threshold:float -> Journal.t -> segment list
(** Slide a [window]-second window over the journal (ordered by entry
    time); a new segment starts whenever the class-mix distance between
    adjacent windows exceeds [threshold] (total-variation distance on the
    per-statement cost shares, 0..1).  Always returns at least one segment
    covering the whole journal. *)

val merge : Workload.t -> Allocation.t list -> Allocation.t
(** [merge overall allocs] merges per-segment allocations over the same
    backends into one over [overall], the workload whose fragments the
    segments' placements store: segment i+1's backends are matched to the
    merged allocation's backends by minimal additional data (Eq. 27) and
    fragment sets are united; then each read class is spread over the
    backends holding its data, water-filling toward equal utilization,
    and each update class pinned wherever its data lives.
    @raise Invalid_argument on an empty list, mismatched backend counts,
    or a segment storing a fragment outside [overall]. *)

val allocate_segmented :
  classify:(Journal.t -> Workload.t) ->
  allocate:(Workload.t -> Allocation.t) ->
  window:float ->
  threshold:float ->
  Journal.t ->
  Allocation.t * segment list
(** End-to-end pipeline: segment, classify and allocate each segment, then
    {!merge} over the whole journal's classification. *)
