(** Minimal work pool over OCaml 5 [Domain] — no external dependencies.

    Used by the island-parallel memetic optimizer: independent tasks are
    striped over at most [Domain.recommended_domain_count] domains.  The
    assignment of tasks to domains is deterministic (round-robin by index)
    and every task writes only its own result slot, so the result of
    {!map} is identical regardless of how many domains actually run —
    parallelism changes wall-clock only, never the answer. *)

val available : unit -> int
(** Number of domains worth spawning on this machine
    ([Domain.recommended_domain_count], at least 1). *)

val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~domains f arr] applies [f] to every element, running up to
    [domains] (default {!available}) domains in parallel.  [f] must only
    touch data owned by its own argument; results are returned in input
    order.  With [domains <= 1] (or a short array) everything runs on the
    calling domain.  An exception in any task is re-raised after all
    domains have joined. *)

