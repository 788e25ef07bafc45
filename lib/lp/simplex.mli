(** Dense two-phase primal simplex solver.

    Solves linear programs of the form

    {v minimize    c . x
       subject to  a_i . x (<= | >= | =) b_i   for every row i
                   x >= 0 v}

    All variables are implicitly non-negative; upper bounds must be added as
    explicit [Le] rows.  The implementation uses a standard tableau with
    Bland's anti-cycling rule as a fallback after a fixed number of Dantzig
    pivots, which keeps it both fast on typical inputs and guaranteed to
    terminate. *)

type relation =
  | Le  (** row . x <= rhs *)
  | Ge  (** row . x >= rhs *)
  | Eq  (** row . x = rhs *)

type row = {
  coeffs : (int * float) list;  (** sparse [(variable index, coefficient)] *)
  relation : relation;
  rhs : float;
}

type problem = {
  num_vars : int;  (** number of structural variables, indexed [0 .. n-1] *)
  objective : float array;  (** minimization objective, length [num_vars] *)
  rows : row list;
}

type outcome =
  | Optimal of { value : float; solution : float array }
      (** optimal objective value and one optimal point *)
  | Infeasible  (** the constraint system admits no solution *)
  | Unbounded  (** the objective is unbounded below on the feasible set *)

val solve : problem -> outcome
(** [solve p] minimizes [p.objective] subject to [p.rows].  To maximize,
    negate the objective and the resulting value. *)

val row : (int * float) list -> relation -> float -> row
(** [row coeffs rel rhs] builds a constraint row; convenience constructor. *)

val feasible : problem -> float array -> bool
(** [feasible p x] checks whether point [x] satisfies every row of [p]
    (and non-negativity) within tolerance [1e-6].  Used by
    tests to validate solver output independently of the tableau. *)
