(** A classified workload: the read and update query classes with their
    weights, as produced by {!Classification}. *)

type t = {
  reads : Query_class.t list;  (** the set C_Q *)
  updates : Query_class.t list;  (** the set C_U *)
}

val make : reads:Query_class.t list -> updates:Query_class.t list -> t

val all_classes : t -> Query_class.t list

val fragments : t -> Fragment.Set.t
(** Union of all referenced fragments (the set F restricted to accessed
    data). *)

val updates_of : t -> Query_class.t -> Query_class.t list
(** [updates_of w c] is the paper's [updates(C)] (Eq. 12): the update
    classes whose fragment set overlaps [c]'s. *)

val update_weight_of : t -> Query_class.t -> float
(** Total weight of [updates_of w c] — the update load co-allocated with
    [c]. *)

val total_weight : t -> float
(** Should be 1 for a proper classification. *)

val normalize : t -> t
(** Rescale all weights so they sum to 1 (no-op on an already normalized or
    empty workload). *)

val find : t -> string -> Query_class.t option
val pp : t Fmt.t
