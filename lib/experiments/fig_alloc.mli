(** Massive-instance allocator benchmark (the scale claim of Sec. 3 taken
    to 10⁵–10⁶ fragments): times the dense greedy, the island-parallel
    memetic and O(delta) incremental repair against a from-scratch
    re-solve on one synthetic instance, verifying every product with the
    dense checker.  Seed-deterministic apart from the timing fields. *)

type strategy = Greedy | Memetic

type params = {
  fragments : int;
  reads : int;
  updates : int;
  backends : int;
  seed : int;
  strategy : strategy;  (** [Memetic] runs the island optimizer after greedy *)
  population : int;
  generations : int;
  islands : int;
  migration_every : int;
  domains : int option;  (** [None] = all available *)
  repair : bool;  (** also time a [delta_frac] repair vs. re-solve *)
  delta_frac : float;
  budget : int option;  (** rebalance-copy cap handed to {!Cdbs_core.Incremental.repair} *)
}

val default : params
(** 10⁶ fragments × 150k classes × 100 backends, greedy + 1% repair. *)

val smoke : params
(** CI preset: 10⁵ fragments × 50 backends — big enough that a quadratic
    regression in the dense core blows the wall-clock gate, small enough
    for a 1-core runner. *)

type memetic_result = {
  memetic_s : float;
  memetic_scale : float;
  memetic_stored : float;
  domains_used : int;
  memetic_errors : int;  (** dense-checker errors on the memetic state *)
}

type repair_result = {
  deltas : int;
  repair_s : float;
  resolve_s : float;  (** greedy from scratch on the post-delta instance *)
  repair_speedup : float;
  moved_fragments : int;
  moved_frac : float;  (** of the instance's fragment count *)
  rebalance_fragments : int;
  repair_errors : int;  (** dense-checker errors on the repaired state *)
}

type result = {
  p : params;
  greedy_s : float;
  greedy_scale : float;
  greedy_stored : float;
  check_errors : int;
  memetic : memetic_result option;
  repair : repair_result option;
}

val run : ?params:params -> unit -> result
val to_json : result -> string
val pp_result : result Fmt.t
val print_all : unit -> unit
(** The [experiment alloc] section: the smoke preset with the memetic
    enabled, printed ([cdbs alloc --smoke -s memetic --out FILE] also
    writes the JSON report). *)
