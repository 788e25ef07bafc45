(** Query executor: runs parsed SQL statements against a {!Database.t}.

    This is the "backend DBMS" of the CDBS architecture — each backend is an
    independent single-node engine, and a query sent to a backend is executed
    entirely locally (the paper's processing model, Sec. 2).  The physical
    plan is deliberately simple (scan, filter, hash equi-join falling back to
    nested loops, hash aggregation, sort, limit; single-table equality
    predicates use a secondary hash index when one exists): the
    reproduction needs correct local execution and plausible relative
    costs, not a competitive optimizer.

    A statement is compiled before it runs.  Each column reference is
    resolved once against the FROM/JOIN layout: the first table, in FROM
    and JOIN order, that the qualifier names (any table, without one) and
    that has the column.  A name that resolves to nothing compiles to a
    node that fails with [unknown column] when, and only when, a row
    reaches it.  A joined row is an array of the tables' stored rows, and
    hash joins key on resolved positions.  When no part of the WHERE or of
    an ON clause can fail (every name resolves, no [*], no function call),
    each WHERE conjunct filters as soon as its tables are bound: at a
    table's scan when it names one table, after the join that binds the
    last of several otherwise.  Surviving rows keep their order, so
    results, sums included, are the same either way.

    UPDATE and DELETE evaluate every row's predicate and new values before
    they change any row, so a failing write changes nothing; UPDATE refuses
    to give two rows one primary key.  A WHERE whose leftmost conjunct is
    [key = literal] on a one-column primary key reads that key's rows
    through the primary-key index. *)

type result =
  | Rows of { columns : string list; rows : Value.t array list }
  | Affected of int  (** row count touched by INSERT/UPDATE/DELETE *)

val execute : Database.t -> Cdbs_sql.Ast.statement -> (result, string) Result.t
(** Execute one statement.  Errors are returned, never raised: missing
    table or column, arity mismatches, duplicate keys, unsupported
    constructs.  A failing UPDATE or DELETE changes nothing; the error it
    returns is the last one its rows met, in table order. *)

val execute_sql : Database.t -> string -> (result, string) Result.t
(** Parse then execute; parse errors are returned as [Error]. *)
