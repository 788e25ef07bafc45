(** SQL text of the 19 evaluated TPC-H-style queries.

    The statements are adapted to the SQL subset of {!Cdbs_sql} (correlated
    subqueries are unrolled into joins or dropped, semantics preserved
    where possible) but reference {e exactly} the tables and columns of the
    corresponding class footprint in {!Tpch.specs} — a journal of these
    statements classifies to the same workload the statistical definition
    produces, which the test suite verifies. *)

val all : (string * string) list
(** [(query id, SQL text)] for Q1–Q22 minus Q17, Q20, Q21. *)

val journal :
  rng:Cdbs_util.Rng.t -> n:int -> sf:float -> Cdbs_core.Journal.t
(** A journal of [n] entries drawn with per-query frequencies matching the
    class weights (heavier classes are fewer, more expensive executions —
    entry costs carry the class cost). *)
