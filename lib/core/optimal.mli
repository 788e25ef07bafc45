(** Exact allocation via the Appendix B mixed-integer program.

    Two phases, as in the paper: first minimize the [scale] factor
    (throughput-optimal), then — holding [scale] at its optimum — minimize
    the total allocated space.  Decision variables follow Appendix B:
    allocation matrix A, load-distribution matrices L_Q/L_U and indicator
    helpers H_Q/H_U.  Only the H matrices need integrality: given integral
    indicators, constraints 44–45 force A to the exact fragment unions, so
    A and the L matrices stay continuous and the branch-and-bound tree is
    over [|B| * |C|] binaries.

    Like the paper (which could only solve up to 7 backends), this is
    feasible for small instances only; [node_limit] makes it an anytime
    solver that returns the best allocation found. *)

type report = {
  allocation : Allocation.t;
  scale : float;
      (** optimal (or best-found) scale; the allocation's own is within
          1e-6 of it, the slack the space-minimizing phase is given *)
  space : float;  (** total allocated fragment size after phase 2 *)
  proved_optimal : bool;  (** both phases closed their search trees *)
}

val allocate :
  ?node_limit:int -> Workload.t -> Backend.t list -> (report, string) result
(** Solve both phases, the incumbent warm-started with {!Greedy.allocate}.
    [node_limit] (default 50_000) bounds each phase's branch-and-bound
    tree. *)

val coarsen : Workload.t -> Workload.t
(** Merge fragments that occur in exactly the same set of query classes
    into single compound fragments (sizes summed).  This preserves the
    optimization problem — any solution maps 1:1 — while shrinking the
    A-matrix dramatically for column-granularity workloads. *)
