(** Hungarian (Kuhn–Munkres) algorithm for the assignment problem.

    Computes a minimum-cost perfect matching of an [n x n] cost matrix in
    O(n³) using the potentials formulation.  The paper uses it for the
    physical-allocation step (Sec. 3.4): matching newly computed backends to
    currently installed backends so the amount of data moved is minimal, and
    for elastic scale-out/scale-in where virtual empty backends pad the
    smaller side. *)

val solve : float array array -> int array * float
(** [solve cost] returns [(assignment, total)] where [assignment.(i) = j]
    means row [i] is matched to column [j], and [total] is the summed cost.
    Raises [Invalid_argument] if the matrix is empty or not square. *)
