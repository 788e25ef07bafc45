(** Query classes — groups of queries that access the same data fragments
    (paper Sec. 3.1, Eqs. 2–4).

    A class carries its access footprint (a fragment set), its kind (read or
    update) and its weight: the fraction of the total workload cost that
    queries of this class produce.  Read-class weights plus update-class
    weights sum to 1 over a classification. *)

type kind = Read | Update

type t = {
  id : string;  (** stable identifier, e.g. ["Q1"] or ["U2"] *)
  kind : kind;
  fragments : Fragment.Set.t;
  weight : float;
}

val read : string -> Fragment.t list -> weight:float -> t
val update : string -> Fragment.t list -> weight:float -> t

val size : t -> float
(** Total size of the fragments the class references. *)

val overlaps : t -> t -> bool
(** Whether the two classes reference at least one common fragment. *)

val is_update : t -> bool

val pp : t Fmt.t
