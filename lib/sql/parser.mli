(** Recursive-descent parser for the SQL subset described in {!Ast}. *)

exception Parse_error of string

val parse : string -> Ast.statement
(** [parse sql] parses a single statement (a trailing [;] is allowed).
    @raise Parse_error on malformed input (including {!Lexer.Lex_error}
    conditions, which are wrapped), and on an [INSERT] whose column list
    and value list differ in length. *)

val parse_expr : string -> Ast.expr
(** [parse_expr s] parses a standalone expression; used by tests. *)
