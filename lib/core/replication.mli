(** Replication accounting (paper Eq. 28 and Figs. 4(c), 4(k), 4(l)). *)

val degree : Allocation.t -> float
(** Degree of replication r(B): total size of all stored fragment copies
    divided by the size of the distinct fragments of the workload.  Full
    replication on n backends yields n. *)

val histogram : Allocation.t -> max_replicas:int -> int array
(** [histogram a ~max_replicas] counts fragments by replica count:
    index i holds the number of fragments replicated exactly [i+1] times
    (index [max_replicas - 1] aggregates everything at or above). *)

val min_replicas : Allocation.t -> int
(** Smallest replica count over all workload fragments (0 when some
    fragment is nowhere stored — an invalid allocation). *)
