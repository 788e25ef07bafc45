(** Per-backend admission control with priority-aware load shedding.

    Each backend has a bounded queue: at most [max_depth] requests in
    flight, and at most [max_pending] seconds of queueing delay ahead of a
    newcomer.  Past either watermark the backend is overloaded and a read
    must be shed.  Updates are {e never} shed — ROWA correctness requires
    every replica of a written partition to apply every update.

    The decision here is pure; the engine that owns the queues implements
    the shed-oldest-first eviction (the read that has waited longest is
    the one most likely past its deadline, so it is evicted to admit
    fresher work). *)

type policy = {
  max_depth : int;  (** maximum requests in flight per backend *)
  max_pending : float;  (** maximum queueing delay (seconds) per backend *)
}

val default : policy
(** depth 64, pending watermark 1 s. *)

val make : ?max_depth:int -> ?max_pending:float -> unit -> policy
(** @raise Invalid_argument when [max_depth < 1] or [max_pending <= 0]. *)

type decision = Admit | Shed

val decide : policy -> depth:int -> pending:float -> is_update:bool -> decision
(** [decide p ~depth ~pending ~is_update] — [depth] is the number of
    requests already in flight on the backend and [pending] the queueing
    delay a newcomer would see.  Updates are always admitted. *)
