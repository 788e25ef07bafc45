(** Query classification (paper Sec. 3.1, Eqs. 2–4).

    Groups the journal's queries by the data fragments they access; the
    chosen granularity determines the partitioning that the allocation will
    produce:

    - [Single] — all queries in one class: the allocation degenerates to
      full replication;
    - [By_table] — classes keyed by accessed tables: partial replication
      without partitioning;
    - [By_column] — classes keyed by accessed columns: vertical
      partitioning (each class implicitly carries a candidate key so data
      remains losslessly reconstructible);
    - [By_predicate splits] — classes keyed by predicate ranges over the
      given split points: horizontal partitioning. *)

type granularity =
  | Single
  | By_table
  | By_column
  | By_predicate of (string * string * float list) list
      (** [(table, column, ascending interior split points)]: the column's
          domain is cut into [n+1] range fragments.  Tables without a split
          spec fall back to table granularity. *)

val classify :
  schema:Cdbs_storage.Schema.t ->
  size_of:(Fragment.kind -> float) ->
  granularity ->
  Journal.t ->
  Workload.t
(** Classify every journal entry, with class weights proportional to summed
    entry costs (Eq. 4), normalized to 1.  Classes are named [Q1..Qn] /
    [U1..Um] in descending weight order.  Statements that fail to parse are
    skipped (real journals contain noise). *)

val default_sizes :
  schema:Cdbs_storage.Schema.t ->
  rows:(string * int) list ->
  Fragment.kind ->
  float
(** Fragment sizes in MB derived from schema column widths and per-table row
    counts.  Range fragments assume a uniform value distribution. *)
