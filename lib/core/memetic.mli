(** Memetic (evolutionary + local search) allocation improvement
    (paper Algorithm 2, Sec. 3.3).

    Evolutionary programming over allocations: mutations perturb a single
    parent (no recombination), selection keeps the best 2/3 of the parents
    and the best 1/3 of the offspring (a (λ+µ) strategy), and a random 1/3
    of the surviving population is improved by local search each iteration
    — the paper's two strategies:

    - consolidating read classes that share backends so a replicated update
      class can be dropped (Eqs. 21–22);
    - shifting read classes so a heavy replicated update class trades
      places with a lighter one (Eqs. 23–26).

    The cost function is lexicographic, matching the paper's objective:
    scale (throughput) first, total stored bytes (replication) second.

    The search runs on {!Dense}: {!allocate} compiles the workload once
    ({!Greedy.via_dense}); {!improve} and {!local_search} search a copy of
    their input's state ({!Allocation.state}) and return the view over the
    result ({!Allocation.with_state}).  The mutation is {!Dense.mutate}, a
    move {!Dense.transfer}, the cost {!Dense.cost}.  {!Memetic_par} runs
    the same (λ+µ) step on islands.

    {b Precondition} of {!improve} and {!local_search}: the input passes
    {!Allocation.validate} and holds no dead storage (the checker's
    ALC011), as greedy's output does.  A {!Dense.transfer} prunes only the
    backends it touches; on such an input that agrees with pruning every
    backend.  Breaking either condition can change the placement, never
    misplace its bits. *)

type local_search_mode =
  | No_local_search  (** plain evolutionary programming *)
  | Consolidate_only  (** strategy 1 only (Eqs. 21–22) *)
  | Both_strategies  (** the full memetic algorithm *)

type params = {
  population : int;  (** population size p (default 12) *)
  iterations : int;  (** generations to run (default 60) *)
  mutations_per_parent : int;  (** offspring generated per survivor *)
  local_search_mode : local_search_mode;  (** default [Both_strategies] *)
}

val default_params : params

val compare_cost : Dense.t -> Dense.t -> int
(** [-1] when the first state's {!Dense.cost} is better: a lower scale by
    more than [Eps.assign], or a scale within it and fewer stored bytes by
    more than it; [1] when the second's is; [0] otherwise. *)

val generation :
  population:int ->
  mutations_per_parent:int ->
  Cdbs_util.Rng.t ->
  Dense.t array ->
  Dense.t array
(** One (λ+µ) step over non-empty parents: [max p (mutations_per_parent ×
    parents)] offspring, each {!Dense.mutate} of a random parent, then the
    best [2p/3] parents and the best [p - 2p/3] offspring, each sorted
    stably by {!compare_cost}, with [p = max 3 population]. *)

val best : Dense.t array -> Dense.t
(** The first of the best states under {!compare_cost}. *)

val improve :
  ?params:params ->
  rng:Cdbs_util.Rng.t ->
  Allocation.t ->
  Allocation.t
(** Improve an initial (typically greedy) allocation that meets the
    precondition above.  The result is a fresh allocation, always valid and
    never worse than the input under {!compare_cost}. *)

val allocate :
  ?params:params ->
  rng:Cdbs_util.Rng.t ->
  Workload.t ->
  Backend.t list ->
  Allocation.t
(** Greedy seed followed by the evolution — the paper's full heuristic
    pipeline, with one compile.
    @raise Invalid_argument on an empty backend list. *)

val search : Dense.t -> Dense.t * bool
(** One pass of the two local-search strategies, each walking its
    candidates in a fixed order and accepting a trial copy when
    {!compare_cost} prefers it: the improved state (the input itself when
    nothing improved) and whether anything improved.  The evolution runs it
    on a random third of each generation. *)

val local_search : Allocation.t -> Allocation.t * bool
(** {!search} over an input that meets the precondition above: the
    improved allocation (fresh) and whether anything improved. *)
