(** Delta journal for in-flight fragment copies.

    A copy ships a snapshot; updates that arrive while the snapshot is on
    the wire must not be lost.  Each (destination, fragment) copy opens a
    capture; updates touching the fragment are appended to every open
    capture; at cutover the capture is drained and replayed on the
    destination before the fragment goes live there.

    The journal is polymorphic in the captured item so the simulator can
    capture abstract costs while the controller captures SQL statements. *)

open Cdbs_core

type 'a t

val create : unit -> 'a t

val open_capture : 'a t -> dest:int -> fragment:Fragment.t -> unit
(** Start capturing updates to [fragment] destined for backend [dest].
    Re-opening an open capture resets it (fresh snapshot, empty delta). *)

val is_empty : 'a t -> bool
(** No capture is open: {!capture} would record nothing. *)

val capture : 'a t -> fragment:Fragment.t -> item:'a -> mb:float -> int
(** Record an update touching [fragment] into every open capture for it;
    returns the number of captures that recorded it. *)

val drain : 'a t -> dest:int -> fragment:Fragment.t -> 'a list * float
(** Close the capture and return its items in arrival order together with
    their total megabytes.  Returns [([], 0.)] when no capture is open. *)
