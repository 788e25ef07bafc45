(** Table statistics and cardinality estimation.

    The paper computes query-class weights from summed execution times or
    "a cost estimation (e.g., from the query optimizer)" (Sec. 3.1).  This
    module provides that second source: per-column statistics collected
    from a table and a textbook selectivity model for predicates, giving
    deterministic cost estimates without executing anything.  Only the
    columns a predicate names are ever scanned. *)

type column_stats = {
  distinct : int;  (** number of distinct values *)
  min_value : Value.t option;  (** smallest non-null value *)
  max_value : Value.t option;
}

type t
(** Rows and bytes of a table, and the statistics of each column a
    predicate has asked about so far. *)

val empty : t
(** No rows, no bytes, no columns. *)

val collect : Table.t -> t
(** Rows and bytes now, exactly ({!Table.byte_size}); a column's
    statistics are computed from the table the first time {!column} or an
    estimate needs them.  Drop the statistics when the table takes a write:
    computing a column afterwards raises [Invalid_argument]. *)

val column : t -> string -> column_stats option
(** The named column's statistics, computed on first use; [None] when the
    table has no such column. *)

val selectivity : t -> Cdbs_sql.Ast.expr -> float
(** Estimated fraction of rows satisfying the predicate, in [0, 1]:
    equality on a column uses 1/distinct, ranges interpolate between the
    column's min and max, conjunctions multiply, disjunctions add (capped),
    LIKE and unknown shapes fall back to fixed default factors. *)

val estimate_rows : t -> Cdbs_sql.Ast.expr option -> float
(** [rows * selectivity], or all rows without a predicate. *)

val estimate_scan_bytes : t -> Cdbs_sql.Ast.expr option -> float
(** Bytes a scan with the predicate must produce — the cost-estimation
    backend for journal weights. *)
