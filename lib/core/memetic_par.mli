(** Domain-parallel memetic optimizer over the {!Dense} representation.

    Island model: [islands] populations evolve independently (the
    parallel section, striped over a {!Cdbs_util.Pool}), exchanging
    elites around a ring every [migration_every] generations.  Each
    island owns an RNG split off the master seed in island order, and
    migration is a barrier with snapshotted elites, so the result is
    bit-identical for a fixed (seed, islands) whether the islands run on
    1 domain or 8 — parallelism buys wall-clock, never a different
    answer.

    Each generation is {!Memetic.generation}, the (λ+µ) step {!Memetic}
    runs, without its local searches: their O(n²·reads²) passes do not
    scale, and at dense scale the mutation volume (plus migration
    pressure) does their job. *)

type params = {
  population : int;
  generations : int;
  mutations_per_parent : int;
  islands : int;
  migration_every : int;
}

val default_params : params
(** 8 individuals × 24 generations over 4 islands, migrating every 6. *)

val improve :
  ?params:params -> ?domains:int -> seed:int -> Dense.t -> Dense.t
(** Evolve from the given allocation; never returns anything worse than
    the input (the input stays in the candidate set). [domains] caps the
    pool ({!Cdbs_util.Pool.available} by default). *)

