(** Static analysis of parsed statements for query classification.

    Classification (paper Sec. 3.1) groups queries by the data they access:
    tables (no partitioning), columns (vertical partitioning), or predicate
    ranges (horizontal partitioning).  This module extracts exactly that
    footprint from a {!Ast.statement}. *)

type bound = Neg_inf | Pos_inf | Value of float

type interval = {
  lo : bound;
  hi : bound;
}
(** A conservative numeric range restriction on a column (closed on finite
    ends). *)

type footprint = {
  tables : string list;  (** sorted, deduplicated table names *)
  columns : (string * string) list;
      (** sorted, deduplicated [(table, column)] pairs; unqualified columns
          that could not be resolved are attributed to the single table in
          scope or to ["?"] *)
  predicates : ((string * string) * interval) list;
      (** per-column range restrictions implied by conjunctive predicates *)
  is_update : bool;
}

val footprint_of_statement : ?schema:(string * string list) list ->
  Ast.statement -> footprint
(** [footprint_of_statement ~schema st] computes the access footprint.
    [schema] maps table names to their column lists and is used to resolve
    unqualified column references and to expand [SELECT *] / whole-row
    updates into concrete columns. *)

val footprint_of_sql : ?schema:(string * string list) list ->
  string -> footprint
(** Parse and analyze in one step. @raise Parser.Parse_error *)

val interval_intersect : interval -> interval -> interval option
(** Intersection of two ranges, [None] if empty. *)
