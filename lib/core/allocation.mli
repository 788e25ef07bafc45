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

    The structure is mutable — the greedy and memetic algorithms edit it in
    place — and cheap to {!copy} for population-based search. *)

type t

val create : Workload.t -> Backend.t list -> t
(** An empty allocation (no fragments placed, nothing assigned).
    @raise Invalid_argument when two classes share an id. *)

val copy : t -> t

val blit : src:t -> dst:t -> unit
(** Overwrite [dst]'s placement and assignments with [src]'s.  Both must
    stem from the same workload/backends. *)

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

val assigned_load : t -> int -> float
(** Sum of assigned class weights on the backend (Eq. 14). *)

val update_weight : t -> int -> Query_class.t -> float
(** [updateWeight(B, C)] (Eq. 13): update load already on the backend that
    overlaps class [C]'s data. *)

val scale : t -> float
(** max over backends of assignedLoad/load, floored at 1 (Eq. 15).  The
    factor by which replicated updates inflate the total work. *)

val scaled_load : t -> int -> float
(** [load(B) * scale] when [scale > 1], else [load(B)] (Eq. 15). *)

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

val prune : t -> unit
(** Drop fragments (and update-class pinnings) from backends where no
    assigned read class needs them, while keeping every update class on at
    least one backend (Eq. 11); re-establishes the closure afterwards. *)

val validate : t -> (unit, string list) result
(** Check Eqs. 8–11 plus basic sanity (non-negative assignments). *)

(** {1 Positional access}

    Classes addressed by their position [k] in {!classes}: reads at
    [0 .. num_reads - 1], then updates.  These skip the id lookup of the
    class-valued functions above. *)

val num_reads : t -> int

val position : t -> string -> int option
(** Position of the class with this id, if the workload has one. *)

val assign_at : t -> int -> int -> float
(** [assign_at t b k]: class [k]'s share on backend [b]. *)

val set_assign_at : t -> int -> int -> float -> unit

val holds_at : t -> int -> int -> bool
(** Whether backend [b] stores every fragment class [k] references. *)

val overlaps_at : t -> int -> int -> bool
(** Whether backend [b] stores any fragment class [k] references. *)

val add_class_at : t -> int -> int -> unit
(** [add_class_at t b k] stores class [k]'s fragments on backend [b]. *)

val classes_overlap : t -> int -> int -> bool
(** {!Query_class.overlaps} by position. *)

val pp_load_matrix : t Fmt.t
(** The class-by-backend percentage matrix used throughout the paper's
    examples. *)

val pp_allocation_matrix : t Fmt.t
(** The backend-by-fragment 0/1 matrix of Appendix A. *)
