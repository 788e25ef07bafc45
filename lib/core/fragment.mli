(** Data fragments — the unit of partitioning and allocation.

    Depending on the classification granularity (paper Sec. 3.1) a fragment
    is a whole relation (no partitioning), a column of a relation (vertical
    partitioning), or a predicate-defined range of tuples (horizontal
    partitioning).  Hybrid schemes mix the three. *)

type kind =
  | Table of string  (** a whole relation *)
  | Column of { table : string; column : string }
  | Range of { table : string; column : string; lo : float; hi : float }
      (** tuples of [table] whose [column] lies in [[lo, hi)] *)

type t = {
  kind : kind;
  size : float;  (** size in abstract storage units (we use megabytes) *)
}

val table : string -> size:float -> t
val range : string -> string -> lo:float -> hi:float -> size:float -> t

val name : t -> string
(** Canonical display name, e.g. ["lineitem"], ["lineitem.l_price"],
    ["orders.o_id[0,100)"]. *)

val compare : t -> t -> int
(** Order by kind (sizes do not participate: two fragments with the same
    identity are the same fragment): [Table < Column < Range], then names
    with [String.compare] and range bounds with [Float.compare] — the
    order [Stdlib.compare] gives the kinds. *)

val equal : t -> t -> bool
val pp : t Fmt.t

module Set : Set.S with type elt = t

val set_size : Set.t -> float
(** Total size of a fragment set. *)

val of_footprint :
  granularity:[ `Table | `Column ] ->
  size_of:(kind -> float) ->
  Cdbs_sql.Analyze.footprint ->
  Set.t
(** Fragments referenced by an analyzed statement at the chosen granularity,
    with sizes provided by [size_of]. *)
