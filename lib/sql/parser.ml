open Ast

exception Parse_error of string

type state = {
  tokens : Lexer.token array;
  mutable pos : int;
}

let peek st = st.tokens.(st.pos)
let advance st = st.pos <- st.pos + 1

let fail st msg =
  raise
    (Parse_error
       (Fmt.str "%s at token %d (%a)" msg st.pos Lexer.pp_token (peek st)))

let expect_keyword st kw =
  match peek st with
  | Lexer.Keyword k when k = kw -> advance st
  | _ -> fail st (Printf.sprintf "expected %s" kw)

let expect_symbol st sym =
  match peek st with
  | Lexer.Symbol s when s = sym -> advance st
  | _ -> fail st (Printf.sprintf "expected '%s'" sym)

let accept_keyword st kw =
  match peek st with
  | Lexer.Keyword k when k = kw ->
      advance st;
      true
  | _ -> false

let accept_symbol st sym =
  match peek st with
  | Lexer.Symbol s when s = sym ->
      advance st;
      true
  | _ -> false

let expect_ident st =
  match peek st with
  | Lexer.Ident s ->
      advance st;
      s
  | _ -> fail st "expected identifier"

(* Column reference: [ident] or [ident . ident]. *)
let parse_column_ref st =
  let first = expect_ident st in
  if accept_symbol st "." then (Some first, expect_ident st)
  else (None, first)

(* Expression grammar, loosest first:
   or_expr > and_expr > not_expr > comparison > additive > multiplicative
   > primary *)
let rec parse_or st =
  let lhs = parse_and st in
  if accept_keyword st "OR" then Binop (Or, lhs, parse_or st) else lhs

and parse_and st =
  let lhs = parse_not st in
  if accept_keyword st "AND" then Binop (And, lhs, parse_and st) else lhs

and parse_not st =
  if accept_keyword st "NOT" then Not (parse_not st) else parse_comparison st

and parse_comparison st =
  let lhs = parse_additive st in
  match peek st with
  | Lexer.Symbol "=" ->
      advance st;
      Binop (Eq, lhs, parse_additive st)
  | Lexer.Symbol "<>" ->
      advance st;
      Binop (Neq, lhs, parse_additive st)
  | Lexer.Symbol "<" ->
      advance st;
      Binop (Lt, lhs, parse_additive st)
  | Lexer.Symbol "<=" ->
      advance st;
      Binop (Le, lhs, parse_additive st)
  | Lexer.Symbol ">" ->
      advance st;
      Binop (Gt, lhs, parse_additive st)
  | Lexer.Symbol ">=" ->
      advance st;
      Binop (Ge, lhs, parse_additive st)
  | Lexer.Keyword "BETWEEN" ->
      advance st;
      let lo = parse_additive st in
      expect_keyword st "AND";
      let hi = parse_additive st in
      Between (lhs, lo, hi)
  | Lexer.Keyword "IN" ->
      advance st;
      expect_symbol st "(";
      let rec items acc =
        let e = parse_additive st in
        if accept_symbol st "," then items (e :: acc)
        else begin
          expect_symbol st ")";
          List.rev (e :: acc)
        end
      in
      In_list (lhs, items [])
  | Lexer.Keyword "LIKE" -> (
      advance st;
      match peek st with
      | Lexer.String_lit pat ->
          advance st;
          Like (lhs, pat)
      | _ -> fail st "expected string literal after LIKE")
  | Lexer.Keyword "IS" ->
      advance st;
      let negated = accept_keyword st "NOT" in
      expect_keyword st "NULL";
      let base = Binop (Eq, lhs, Lit Null) in
      if negated then Not base else base
  | _ -> lhs

and parse_additive st =
  let rec loop lhs =
    if accept_symbol st "+" then loop (Binop (Add, lhs, parse_multiplicative st))
    else if accept_symbol st "-" then
      loop (Binop (Sub, lhs, parse_multiplicative st))
    else lhs
  in
  loop (parse_multiplicative st)

and parse_multiplicative st =
  let rec loop lhs =
    if accept_symbol st "*" then loop (Binop (Mul, lhs, parse_primary st))
    else if accept_symbol st "/" then loop (Binop (Div, lhs, parse_primary st))
    else lhs
  in
  loop (parse_primary st)

and parse_primary st =
  match peek st with
  | Lexer.Int_lit i ->
      advance st;
      Lit (Int i)
  | Lexer.Float_lit f ->
      advance st;
      Lit (Float f)
  | Lexer.String_lit s ->
      advance st;
      Lit (String s)
  | Lexer.Keyword "NULL" ->
      advance st;
      Lit Null
  | Lexer.Keyword "TRUE" ->
      advance st;
      Lit (Bool true)
  | Lexer.Keyword "FALSE" ->
      advance st;
      Lit (Bool false)
  | Lexer.Symbol "-" ->
      advance st;
      Binop (Sub, Lit (Int 0), parse_primary st)
  | Lexer.Symbol "(" ->
      advance st;
      let e = parse_or st in
      expect_symbol st ")";
      e
  | Lexer.Symbol "*" ->
      advance st;
      Star
  | Lexer.Ident name ->
      advance st;
      if accept_symbol st "(" then begin
        (* function call *)
        if accept_symbol st ")" then Call (name, [])
        else begin
          let rec args acc =
            let e = parse_or st in
            if accept_symbol st "," then args (e :: acc)
            else begin
              expect_symbol st ")";
              List.rev (e :: acc)
            end
          in
          Call (name, args [])
        end
      end
      else if accept_symbol st "." then Column (Some name, expect_ident st)
      else Column (None, name)
  | _ -> fail st "expected expression"

let parse_select_item st =
  let expr = parse_or st in
  let alias =
    if accept_keyword st "AS" then Some (expect_ident st)
    else
      match peek st with
      | Lexer.Ident a ->
          advance st;
          Some a
      | _ -> None
  in
  { expr; alias }

let parse_table_ref st =
  let table = expect_ident st in
  let tbl_alias =
    if accept_keyword st "AS" then Some (expect_ident st)
    else
      match peek st with
      | Lexer.Ident a ->
          advance st;
          Some a
      | _ -> None
  in
  { table; tbl_alias }

let parse_select st =
  expect_keyword st "SELECT";
  let distinct = accept_keyword st "DISTINCT" in
  let rec items acc =
    let item = parse_select_item st in
    if accept_symbol st "," then items (item :: acc)
    else List.rev (item :: acc)
  in
  let items = items [] in
  expect_keyword st "FROM";
  let from = parse_table_ref st in
  let joins = ref [] in
  let continue = ref true in
  while !continue do
    if accept_symbol st "," then
      joins := { jtable = parse_table_ref st; on = None } :: !joins
    else if
      accept_keyword st "JOIN"
      || (accept_keyword st "INNER" && (expect_keyword st "JOIN"; true))
      || (accept_keyword st "LEFT" && (expect_keyword st "JOIN"; true))
    then begin
      let jtable = parse_table_ref st in
      let on =
        if accept_keyword st "ON" then Some (parse_or st) else None
      in
      joins := { jtable; on } :: !joins
    end
    else continue := false
  done;
  let where = if accept_keyword st "WHERE" then Some (parse_or st) else None in
  let group_by =
    if accept_keyword st "GROUP" then begin
      expect_keyword st "BY";
      let rec cols acc =
        let c = parse_column_ref st in
        if accept_symbol st "," then cols (c :: acc) else List.rev (c :: acc)
      in
      cols []
    end
    else []
  in
  let having =
    if accept_keyword st "HAVING" then Some (parse_or st) else None
  in
  let order_by =
    if accept_keyword st "ORDER" then begin
      expect_keyword st "BY";
      let rec cols acc =
        let c = parse_column_ref st in
        let dir =
          if accept_keyword st "DESC" then Desc
          else begin
            ignore (accept_keyword st "ASC");
            Asc
          end
        in
        if accept_symbol st "," then cols ((c, dir) :: acc)
        else List.rev ((c, dir) :: acc)
      in
      cols []
    end
    else []
  in
  let limit =
    if accept_keyword st "LIMIT" then
      match peek st with
      | Lexer.Int_lit i ->
          advance st;
          Some i
      | _ -> fail st "expected integer after LIMIT"
    else None
  in
  Select
    {
      distinct;
      items;
      from;
      joins = List.rev !joins;
      where;
      group_by;
      having;
      order_by;
      limit;
    }

let parse_insert st =
  expect_keyword st "INSERT";
  expect_keyword st "INTO";
  let target = expect_ident st in
  let columns =
    if accept_symbol st "(" then begin
      let rec cols acc =
        let c = expect_ident st in
        if accept_symbol st "," then cols (c :: acc)
        else begin
          expect_symbol st ")";
          List.rev (c :: acc)
        end
      in
      cols []
    end
    else []
  in
  expect_keyword st "VALUES";
  expect_symbol st "(";
  let rec vals acc =
    let e = parse_or st in
    if accept_symbol st "," then vals (e :: acc)
    else begin
      expect_symbol st ")";
      List.rev (e :: acc)
    end
  in
  let values = vals [] in
  if columns <> [] && List.compare_lengths columns values <> 0 then
    fail st
      (Printf.sprintf "INSERT names %d columns but gives %d values"
         (List.length columns) (List.length values));
  Insert { target; columns; values }

let parse_update st =
  expect_keyword st "UPDATE";
  let target = expect_ident st in
  expect_keyword st "SET";
  let rec assigns acc =
    let col = expect_ident st in
    expect_symbol st "=";
    let e = parse_or st in
    if accept_symbol st "," then assigns ((col, e) :: acc)
    else List.rev ((col, e) :: acc)
  in
  let assignments = assigns [] in
  let where = if accept_keyword st "WHERE" then Some (parse_or st) else None in
  Update { target; assignments; where }

let parse_delete st =
  expect_keyword st "DELETE";
  expect_keyword st "FROM";
  let target = expect_ident st in
  let where = if accept_keyword st "WHERE" then Some (parse_or st) else None in
  Delete { target; where }

let parse_statement st =
  let stmt =
    match peek st with
    | Lexer.Keyword "SELECT" -> parse_select st
    | Lexer.Keyword "INSERT" -> parse_insert st
    | Lexer.Keyword "UPDATE" -> parse_update st
    | Lexer.Keyword "DELETE" -> parse_delete st
    | _ -> fail st "expected SELECT, INSERT, UPDATE or DELETE"
  in
  ignore (accept_symbol st ";");
  (match peek st with
  | Lexer.Eof -> ()
  | _ -> fail st "trailing input after statement");
  stmt

let with_state sql f =
  let tokens =
    try Array.of_list (Lexer.tokenize sql)
    with Lexer.Lex_error (msg, off) ->
      raise (Parse_error (Printf.sprintf "lex error: %s at offset %d" msg off))
  in
  f { tokens; pos = 0 }

let parse sql = with_state sql parse_statement

let parse_expr s =
  with_state s (fun st ->
      let e = parse_or st in
      match peek st with
      | Lexer.Eof -> e
      | _ -> fail st "trailing input after expression")
