(** Time-partitioned event-archive workload — the horizontal-partitioning
    showcase (paper Sec. 3.1: queries can be grouped "based on their
    predicates and, thus, create a horizontal partitioning").

    One large append-only [events] table dominates the database.  Dashboards
    hammer the most recent days, analytic scans read the full year, and all
    inserts land in the newest range.  Table-granular classification cannot
    separate any of this — every class references [events], so the insert
    class is dragged onto every backend that serves reads.  Classifying by
    the predicate ranges on [ev_day] splits the table into quarters: the hot
    head quarter (reads + all writes) pins to few backends while the cold
    quarters replicate freely. *)

val schema : Cdbs_storage.Schema.t

val workload :
  granularity:
    [ `Table | `Column | `Predicate ] ->
  rng:Cdbs_util.Rng.t ->
  n:int ->
  Cdbs_core.Workload.t
(** Classify a fresh [n]-entry journal at the requested granularity. *)
