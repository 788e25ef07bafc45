(** The paper's analytical performance model (Sec. 2 and 3.2.1).

    Amdahl's-law-style throughput prediction for the CDBS processing model:
    reads parallelize perfectly, updates replicate and act as the serial
    fraction. *)

val full_replication : nodes:int -> update_weight:float -> float
(** Speedup of a fully replicated cluster where updates (total weight
    [update_weight]) run on every node: Eq. 1 (Amdahl's law) with
    [serial = update_weight].  For the fully replicated TPC-App setup
    ([update_weight = 0.25], 10 nodes) this is the paper's 3.07 (Eq. 29). *)

val max_speedup_bound : Workload.t -> nodes:int -> float
(** Eq. 17: an upper bound on any allocation's speedup — the reciprocal of
    the largest co-allocated update weight [max_C sum_{CU in updates(C)}
    weight(CU)], additionally capped by the node count (read-only workloads
    are bounded by linear speedup). *)

val of_scale : nodes:int -> scale:float -> float
(** Eq. 19: [nodes / scale]; with 10 nodes and scale 1.3 this is the
    paper's 7.7 (Eq. 30). *)
