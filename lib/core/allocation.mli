(** Partial-replication allocations (paper Sec. 3.2).

    An allocation places fragment sets on backends and assigns each query
    class's weight across backends:

    - [assign c b > 0] requires the backend to hold all of [c]'s fragments
      (Eq. 8);
    - read classes are fully distributed: the per-backend shares of a read
      class sum to its weight (Eq. 9);
    - an update class is pinned at full weight on {e every} backend holding
      any of its referenced data (ROWA, Eq. 10) and lives on at least one
      backend (Eq. 11).

    An allocation is a view over one {!Dense.t}: {!create} compiles the
    workload once (with materialized fragments, in [Fragment.compare]
    order, classes reads first), and every accessor and setter below reads
    or writes that state.  Beside it the view keeps only the workload and
    its classes by position with their id index; a fragment is found in
    the instance's sorted fragments.  The paper's heuristics build a state
    on the compiled instance and the view wraps it ({!with_state});
    nothing is copied back.  The structure is mutable and cheap to
    {!copy}. *)

type t

val create : Workload.t -> Backend.t list -> t
(** An empty allocation (no fragments placed, nothing assigned).
    @raise Invalid_argument when two classes share an id. *)

val state : t -> Dense.t
(** The state the view reads and writes, its caches first rebuilt by
    {!Dense.rebuild} from the shares and bitsets the setters wrote.  Its
    instance is the compiled workload: fragments [0 .. n - 1] in
    [Fragment.compare] order, classes by their position in {!classes}. *)

val with_state : t -> Dense.t -> t
(** [with_state t s]: the view over [s] instead of [t]'s state.  [s] is a
    state over [t]'s instance, or over another instance of the same
    classes (by position) and backends with materialized fragments in
    [Fragment.compare] order: one {!Incremental.repair} reweighted, whose
    weights the view's workload then carries, or one a test compiled over
    more fragments than the workload references.
    @raise Invalid_argument when [s] has other classes or backends, or no
    materialized fragments. *)

val copy : t -> t

val backends : t -> Backend.t array
val workload : t -> Workload.t
val num_backends : t -> int

val classes : t -> Query_class.t array
(** All classes, reads first — index order is stable and shared with
    {!class_index}. *)

val class_index : t -> Query_class.t -> int

val fragments_of : t -> int -> Fragment.Set.t
val holds : t -> int -> Query_class.t -> bool
(** Whether the backend stores every fragment the class references. *)

val get_assign : t -> int -> Query_class.t -> float
val set_assign : t -> int -> Query_class.t -> float -> unit

val add_fragments : t -> int -> Fragment.Set.t -> unit
(** @raise Invalid_argument on a fragment no class of the workload
    references. *)

val assigned_load : t -> int -> float
(** Sum of assigned class weights on the backend (Eq. 14).  This and the
    other sums below are taken afresh ({!Dense.refresh}): each backend's
    shares in ascending class order, its fragment sizes in
    [Fragment.compare] order. *)

val scale : t -> float
(** max over backends of assignedLoad/load, floored at 1 (Eq. 15).  The
    factor by which replicated updates inflate the total work. *)

val speedup : t -> float
(** [|B| / scale] (Eq. 19); equals [1 / scaledLoad] in the homogeneous
    case (Eq. 18). *)

val total_stored : t -> float
(** Total size of all fragment copies across backends — the numerator of
    the degree of replication (Eq. 28). *)

val ensure_update_closure : t -> unit
(** Enforce Eq. 10: pin every update class (at full weight) on every backend
    whose fragment set overlaps the class's data, adding the class's
    remaining fragments to those backends; iterates to a fixpoint. *)

val validate : t -> (unit, string list) result
(** Check Eqs. 8–11 plus basic sanity (non-negative assignments). *)

val position : t -> string -> int option
(** Position of the class with this id in {!classes}, if the workload has
    one: the class index of {!state}. *)

val pp_load_matrix : t Fmt.t
(** The class-by-backend percentage matrix used throughout the paper's
    examples. *)

val pp_allocation_matrix : t Fmt.t
(** The backend-by-fragment 0/1 matrix of Appendix A. *)
