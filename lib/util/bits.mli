(** Bitsets over a dense index range, stored in bytes (8 bits each).

    The representation is exposed so hot loops can size and copy sets
    cheaply; {!get} and {!set} do not check bounds. *)

type t = Bytes.t

val create : int -> t
(** [create n]: room for at least [n] bits, all cleared. *)

val copy : t -> t
val get : t -> int -> bool
val set : t -> int -> unit
val reset : t -> unit

val blit : src:t -> dst:t -> unit
(** Copy [src]'s bits over [dst]'s; [dst] must be at least as long. *)

val iter : (int -> unit) -> t -> unit
(** Set bits in ascending index order. *)
