(** Timed realization of a migration {!Planner.plan} under a per-stream
    bandwidth throttle.

    Each copy occupies one stream on its destination and one on its source
    (the authoritative master counts as a single extra stream), so copies
    to different backends overlap while copies sharing a node serialize —
    the background load a real rebalancer imposes.  The copy phase ends at
    {!field-copy_done}; the contract phase (all drops) executes at the same
    barrier, so the plan's expand-then-contract guarantee carries over to
    the timeline. *)

type timed_move = {
  move : Planner.move;
  start : float;
  finish : float;  (** cutover instant: the destination serves the fragment
                       from here on (captured deltas replayed just before) *)
}

type t = {
  plan : Planner.plan;
  bandwidth : float;  (** throttle per stream, MB/s *)
  start : float;
  moves : timed_move list;  (** sorted by [start] *)
  copy_done : float;  (** when the last copy finishes *)
  drops_at : float;  (** the contract barrier ([= copy_done]) *)
}

val make : ?start:float -> bandwidth:float -> Planner.plan -> t
(** Greedy earliest-start scheduling of the plan's moves in plan order.
    @raise Invalid_argument when [bandwidth <= 0]. *)

val copying : t -> backend:int -> at:float -> bool
(** Whether the physical node is the source or destination of an in-flight
    copy at time [at] — i.e. whether foreground requests on it contend with
    background copy I/O. *)

val pp : t Fmt.t
