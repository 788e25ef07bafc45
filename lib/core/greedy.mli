(** The greedy first-fit allocation heuristic (paper Algorithm 1).

    Query classes are sorted descending by the weight they would impose on a
    backend (own weight plus co-allocated update weight) times the size of
    the data they would bring, then placed first-fit: each class goes to the
    backend that needs the least additional data, spilling the remainder of
    a read class to further backends when the best backend's (scaled)
    capacity is exhausted.  Runs in polynomial time; the resulting
    allocation is valid but not necessarily optimal (see {!Memetic} and
    {!Optimal}). *)

val allocate : Workload.t -> Backend.t list -> Allocation.t
(** Compute a greedy allocation.  The workload should be normalized
    (weights summing to 1); backends must be non-empty.

    [via_dense Dense.greedy]: the allocation is a view over the state
    {!Dense.greedy} builds on the compiled workload.

    Deviation from the paper's pseudo-code, for correctness: when placing a
    class's fragments makes a backend overlap update classes beyond
    [updates(C)] (possible when update classes chain through fragments the
    class itself does not reference), those update classes are pinned too,
    so the result always satisfies the validity constraint of Eq. 10. *)

val via_dense :
  context:string -> (Dense.instance -> Dense.t) -> Workload.t ->
  Backend.t list -> Allocation.t
(** [via_dense ~context place workload backends] compiles the workload
    over the backends ({!Allocation.create}), runs [place] on the
    instance and returns the view over the state it built
    ({!Allocation.with_state}), after {!Invariants.check_allocation} under
    [context].  One compile and no copy: {!Ksafety.allocate} runs
    {!Dense.greedy} and its k-safety pass through it, {!Memetic.allocate}
    {!Dense.greedy} and the evolution.
    @raise Invalid_argument on an empty backend list. *)

val sort_key : Workload.t -> Query_class.t -> rest_weight:float -> float
(** The ordering key: [(restWeight(C) + weight(updates(C))) * size(C ∪
    updates(C))], computed by {!Dense.class_closure} as the kernel computes
    it; exposed for tests reproducing the Appendix A trace. *)
