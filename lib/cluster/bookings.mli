(** The in-flight bookings of one backend's FIFO queue: what a crash
    cancels, admission control counts and a hedge cancels as its losing
    leg.

    Bookings sit in push order in two flat arrays, one of floats (start,
    finish, service seconds, megabytes) and one of ints (owner, the read's
    attempt, the read's class position), so a push allocates nothing.  A
    booking is {e live} while it finishes after [now] and has not been
    cancelled; [now] must never decrease from one call to the next.
    Finishes need not grow with push order (a cancel's refund moves the
    backend's free time back, so a later booking can finish first), so a
    dead booking can sit behind a live one: a head index skips only the
    dead prefix, every walk tests each booking it passes, and a full queue
    drops its dead bookings once before it grows. *)

type t

val update : int
(** The owner of a replica write's booking.  A read's owner is its uid,
    which is [>= 0]. *)

val catchup : int
(** The owner of a catch-up replay's booking. *)

val create : unit -> t
(** An empty queue; it allocates its arrays at the first push. *)

val push :
  t ->
  now:float ->
  start:float ->
  finish:float ->
  service:float ->
  mb:float ->
  owner:int ->
  attempt:int ->
  cls:int ->
  unit
(** Append a booking as the newest.  Slots handed out before it may move. *)

val depth : t -> now:float -> int
(** The number of live bookings. *)

val iter_live : t -> now:float -> (int -> unit) -> unit
(** [iter_live t ~now f] applies [f] to the slot of each live booking,
    newest first. *)

val find_live : t -> now:float -> (int -> bool) -> int
(** The slot of the newest live booking that satisfies the predicate, or
    [-1]. *)

val oldest_queued_read : t -> now:float -> arrival:float array -> int
(** The slot of the read booking that starts after [now] and whose owner
    arrived first, by [arrival] indexed by uid, or [-1].  Of reads that
    arrived at the same instant, the newest booking is picked. *)

val cancel : t -> int -> from_:float -> float
(** Cancel the booking in a slot and return the part of its service that
    falls after [from_] (0 when it finished by then).  Its {!finish} reads
    [neg_infinity] afterwards, its other fields are kept. *)

val clear : t -> unit
(** Drop every booking. *)

(** {1 The fields of a slot} *)

val start : t -> int -> float
val finish : t -> int -> float
val service : t -> int -> float
val mb : t -> int -> float
val owner : t -> int -> int
val attempt : t -> int -> int
val cls : t -> int -> int
