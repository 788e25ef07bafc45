(** Backend descriptors.

    A backend is an independent DBMS node.  Its [load] is its relative query
    processing performance: the share of the total cluster performance it
    contributes (paper Eq. 7; all loads sum to 1).  In a homogeneous cluster
    of s nodes every load is 1/s. *)

type t = {
  name : string;
  load : float;
}

val homogeneous : int -> t list
(** [homogeneous n] builds n identical backends with load 1/n. *)

val heterogeneous : float list -> t list
(** Backends with the given relative performances, normalized to sum to 1.
    @raise Invalid_argument on an empty list or non-positive entries. *)

