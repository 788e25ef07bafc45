(** Requests flowing through the cluster: one executed query instance,
    tagged with the query class the classification assigned it to. *)

type t = {
  class_id : string;  (** id of the {!Cdbs_core.Query_class} it belongs to *)
  is_update : bool;
  arrival : float;  (** submission time, seconds *)
  cost_mb : float option;
      (** override of the class's scanned megabytes; [None] uses the class
          fragment size *)
}

val read : ?arrival:float -> ?cost_mb:float -> string -> t
val update : ?arrival:float -> ?cost_mb:float -> string -> t
