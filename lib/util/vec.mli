(** Growable array (OCaml 5.1 has no [Dynarray] yet). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Remove and return the last element. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array

val copy : 'a t -> 'a t
(** An independent vector of the same elements, sized to them. *)

val clear : 'a t -> unit

val truncate : 'a t -> int -> unit
(** [truncate t n] keeps the first [n] elements. *)

val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keep only elements satisfying the predicate, preserving order. *)
