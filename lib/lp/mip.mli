(** Branch-and-bound mixed-integer programming on top of {!Simplex}.

    Minimizes a linear objective where a designated subset of the variables
    must take integer values.  Binary variables are expressed as integer
    variables with an explicit [x <= 1] row (added automatically by
    {!val:binary}).

    The solver performs depth-first branch and bound with best-bound pruning
    against the current incumbent.  An optional node budget turns it into an
    anytime solver: when the budget is exhausted the best incumbent found so
    far is returned with [proved_optimal = false] — mirroring how commercial
    solvers are used on the paper's larger instances. *)

type problem = {
  lp : Simplex.problem;  (** the LP relaxation *)
  integer_vars : int list;  (** indices that must be integral *)
}

type solution = {
  value : float;  (** objective value of the incumbent *)
  assignment : float array;  (** incumbent point (integral on integer vars) *)
  proved_optimal : bool;  (** false when the node budget was exhausted *)
}

type outcome = Solved of solution | No_solution

val solve :
  ?node_limit:int -> ?incumbent:float array -> problem -> outcome
(** [solve p] minimizes [p.lp] with integrality on [p.integer_vars].
    [node_limit] bounds the number of branch-and-bound nodes (default
    [200_000]).  [incumbent], if given, must be a feasible integral point;
    it seeds the upper bound so pruning starts immediately (the paper seeds
    the exact solver with the greedy allocation the same way). *)
