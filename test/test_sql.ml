(* Lexer, parser and analyzer tests for the SQL subset. *)

open Cdbs_sql

let parse_ok sql =
  match Parser.parse sql with
  | st -> st
  | exception Parser.Parse_error m -> Alcotest.failf "parse failed: %s" m

let footprint ?schema sql = Analyze.footprint_of_sql ?schema sql

(* ---------------- lexer ---------------- *)

let test_lexer_basic () =
  let tokens = Lexer.tokenize "SELECT a, b FROM t WHERE x <= 10.5" in
  (* SELECT a , b FROM t WHERE x <= 10.5 EOF = 11 tokens *)
  Alcotest.(check int) "token count" 11 (List.length tokens);
  (match tokens with
  | Lexer.Keyword "SELECT" :: Lexer.Ident "a" :: _ -> ()
  | _ -> Alcotest.fail "unexpected head tokens");
  match List.rev tokens with
  | Lexer.Eof :: Lexer.Float_lit f :: _ ->
      Alcotest.(check (float 1e-9)) "float" 10.5 f
  | _ -> Alcotest.fail "unexpected tail tokens"

let test_lexer_strings () =
  match Lexer.tokenize "SELECT 'it''s'" with
  | [ Lexer.Keyword "SELECT"; Lexer.String_lit s; Lexer.Eof ] ->
      Alcotest.(check string) "escaped quote" "it's" s
  | _ -> Alcotest.fail "bad tokens"

let test_lexer_operators () =
  match Lexer.tokenize "a <> b != c <= d >= e" with
  | [
   Lexer.Ident "a"; Lexer.Symbol "<>"; Lexer.Ident "b"; Lexer.Symbol "<>";
   Lexer.Ident "c"; Lexer.Symbol "<="; Lexer.Ident "d"; Lexer.Symbol ">=";
   Lexer.Ident "e"; Lexer.Eof;
  ] ->
      ()
  | _ -> Alcotest.fail "operator tokens wrong"

let test_lexer_error () =
  match Lexer.tokenize "SELECT @" with
  | exception Lexer.Lex_error (_, 7) -> ()
  | exception Lexer.Lex_error (_, off) ->
      Alcotest.failf "wrong offset %d" off
  | _ -> Alcotest.fail "expected lex error"

let test_lexer_unterminated_string () =
  match Lexer.tokenize "SELECT 'oops" with
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected lex error"

(* ---------------- parser ---------------- *)

let test_parse_select_shape () =
  match parse_ok "SELECT a, t.b AS bb FROM t WHERE a > 5 ORDER BY a DESC LIMIT 3" with
  | Ast.Select s ->
      Alcotest.(check int) "items" 2 (List.length s.Ast.items);
      Alcotest.(check bool) "where" true (s.Ast.where <> None);
      Alcotest.(check int) "order" 1 (List.length s.Ast.order_by);
      Alcotest.(check (option int)) "limit" (Some 3) s.Ast.limit
  | _ -> Alcotest.fail "expected select"

let test_parse_join () =
  match parse_ok "SELECT * FROM a JOIN b ON a.x = b.y JOIN c ON b.z = c.z" with
  | Ast.Select s -> Alcotest.(check int) "joins" 2 (List.length s.Ast.joins)
  | _ -> Alcotest.fail "expected select"

let test_parse_comma_join () =
  match parse_ok "SELECT x FROM a, b WHERE a.k = b.k" with
  | Ast.Select s ->
      Alcotest.(check int) "joins" 1 (List.length s.Ast.joins);
      (match s.Ast.joins with
      | [ { Ast.on = None; _ } ] -> ()
      | _ -> Alcotest.fail "comma join should have no on-condition")
  | _ -> Alcotest.fail "expected select"

let test_parse_group_having () =
  match
    parse_ok
      "SELECT c, count(*) FROM t GROUP BY c HAVING count(*) > 2"
  with
  | Ast.Select s ->
      Alcotest.(check int) "group" 1 (List.length s.Ast.group_by);
      Alcotest.(check bool) "having" true (s.Ast.having <> None)
  | _ -> Alcotest.fail "expected select"

let test_parse_insert () =
  match parse_ok "INSERT INTO t (a, b) VALUES (1, 'x')" with
  | Ast.Insert { target; columns; values } ->
      Alcotest.(check string) "target" "t" target;
      Alcotest.(check (list string)) "columns" [ "a"; "b" ] columns;
      Alcotest.(check int) "values" 2 (List.length values)
  | _ -> Alcotest.fail "expected insert"

let test_parse_update () =
  match parse_ok "UPDATE t SET a = a + 1, b = 'y' WHERE a = 2" with
  | Ast.Update { assignments; where; _ } ->
      Alcotest.(check int) "assignments" 2 (List.length assignments);
      Alcotest.(check bool) "where" true (where <> None)
  | _ -> Alcotest.fail "expected update"

let test_parse_delete () =
  match parse_ok "DELETE FROM t WHERE a BETWEEN 1 AND 5" with
  | Ast.Delete { target = "t"; where = Some (Ast.Between _) } -> ()
  | _ -> Alcotest.fail "expected delete with between"

let test_parse_precedence () =
  (* a OR b AND c parses as a OR (b AND c). *)
  match Parser.parse_expr "a OR b AND c" with
  | Ast.Binop (Ast.Or, Ast.Column (None, "a"), Ast.Binop (Ast.And, _, _)) -> ()
  | e -> Alcotest.failf "wrong tree: %a" Ast.pp_expr e

let test_parse_arith_precedence () =
  match Parser.parse_expr "1 + 2 * 3" with
  | Ast.Binop (Ast.Add, Ast.Lit (Ast.Int 1), Ast.Binop (Ast.Mul, _, _)) -> ()
  | e -> Alcotest.failf "wrong tree: %a" Ast.pp_expr e

let test_parse_in_like_null () =
  (match Parser.parse_expr "x IN (1, 2, 3)" with
  | Ast.In_list (_, l) -> Alcotest.(check int) "in items" 3 (List.length l)
  | _ -> Alcotest.fail "expected in-list");
  (match Parser.parse_expr "name LIKE 'ab%'" with
  | Ast.Like (_, "ab%") -> ()
  | _ -> Alcotest.fail "expected like");
  match Parser.parse_expr "x IS NOT NULL" with
  | Ast.Not (Ast.Binop (Ast.Eq, _, Ast.Lit Ast.Null)) -> ()
  | _ -> Alcotest.fail "expected is-not-null"

let test_parse_errors () =
  List.iter
    (fun sql ->
      match Parser.parse sql with
      | exception Parser.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected parse error for %S" sql)
    [
      "SELECT"; "SELECT FROM t"; "SELECT a FROM"; "INSERT t VALUES (1)";
      "UPDATE t a = 1"; "DELETE t"; "SELECT a FROM t WHERE"; "FOO BAR";
      "SELECT a FROM t extra garbage here";
      "INSERT INTO region (r_regionkey, r_name) VALUES (10)";
      "INSERT INTO region (r_regionkey) VALUES (10, 'x')";
    ]

(* ---------------- analyzer ---------------- *)

let schema = [ ("t", [ "a"; "b" ]); ("u", [ "c"; "d" ]) ]

let test_footprint_tables () =
  let fp = footprint ~schema "SELECT a, c FROM t JOIN u ON t.a = u.c" in
  Alcotest.(check (list string)) "tables" [ "t"; "u" ] fp.Analyze.tables;
  Alcotest.(check bool) "not update" false fp.Analyze.is_update

let test_footprint_columns_resolved () =
  let fp = footprint ~schema "SELECT a, d FROM t, u WHERE t.b = u.c" in
  Alcotest.(check (list (pair string string)))
    "columns"
    [ ("t", "a"); ("t", "b"); ("u", "c"); ("u", "d") ]
    fp.Analyze.columns

let test_footprint_alias () =
  let fp = footprint ~schema "SELECT x.a FROM t x WHERE x.b = 1" in
  Alcotest.(check (list string)) "tables" [ "t" ] fp.Analyze.tables;
  Alcotest.(check (list (pair string string)))
    "columns" [ ("t", "a"); ("t", "b") ] fp.Analyze.columns

let test_footprint_unqualified_single_table_no_schema () =
  (* Without schema knowledge, unqualified columns of a single-table query
     must still resolve to that table (the FROM entry registers both the
     alias and the table name; resolution must not double-count). *)
  let fp = footprint "SELECT a, b FROM t WHERE a > 1" in
  Alcotest.(check (list (pair string string)))
    "columns" [ ("t", "a"); ("t", "b") ] fp.Analyze.columns

let test_footprint_star () =
  let fp = footprint ~schema "SELECT * FROM u" in
  Alcotest.(check (list (pair string string)))
    "columns expanded" [ ("u", "c"); ("u", "d") ] fp.Analyze.columns

let test_footprint_update () =
  let fp = footprint ~schema "UPDATE t SET a = 1 WHERE b > 3" in
  Alcotest.(check bool) "is update" true fp.Analyze.is_update;
  Alcotest.(check (list (pair string string)))
    "columns" [ ("t", "a"); ("t", "b") ] fp.Analyze.columns

let test_footprint_insert_all_columns () =
  let fp = footprint ~schema "INSERT INTO t VALUES (1, 2)" in
  Alcotest.(check (list (pair string string)))
    "all columns" [ ("t", "a"); ("t", "b") ] fp.Analyze.columns

let interval_testable =
  Alcotest.testable
    (fun ppf (iv : Analyze.interval) ->
      let b = function
        | Analyze.Neg_inf -> "-inf"
        | Analyze.Pos_inf -> "+inf"
        | Analyze.Value v -> string_of_float v
      in
      Fmt.pf ppf "[%s,%s]" (b iv.Analyze.lo) (b iv.Analyze.hi))
    ( = )

let test_predicate_ranges () =
  let fp = footprint ~schema "SELECT a FROM t WHERE a >= 10 AND a < 20" in
  match List.assoc_opt ("t", "a") fp.Analyze.predicates with
  | Some iv ->
      Alcotest.check interval_testable "range"
        { Analyze.lo = Analyze.Value 10.; hi = Analyze.Value 20. }
        iv
  | None -> Alcotest.fail "no range extracted"

let test_predicate_flipped () =
  (* "5 < a" restricts a from below. *)
  let fp = footprint ~schema "SELECT a FROM t WHERE 5 < a" in
  match List.assoc_opt ("t", "a") fp.Analyze.predicates with
  | Some { Analyze.lo = Analyze.Value 5.; hi = Analyze.Pos_inf } -> ()
  | _ -> Alcotest.fail "flipped comparison not normalized"

let test_predicate_between () =
  let fp = footprint ~schema "SELECT a FROM t WHERE b BETWEEN 1 AND 2" in
  match List.assoc_opt ("t", "b") fp.Analyze.predicates with
  | Some { Analyze.lo = Analyze.Value 1.; hi = Analyze.Value 2. } -> ()
  | _ -> Alcotest.fail "between not extracted"

let test_predicate_disjunction_conservative () =
  (* OR must not restrict the range. *)
  let fp = footprint ~schema "SELECT a FROM t WHERE a < 5 OR a > 10" in
  Alcotest.(check int) "no ranges from OR" 0 (List.length fp.Analyze.predicates)

let test_interval_intersect () =
  let v x = Analyze.Value x in
  let iv lo hi = { Analyze.lo; hi } in
  (match Analyze.interval_intersect (iv (v 1.) (v 5.)) (iv (v 3.) (v 8.)) with
  | Some { Analyze.lo = Analyze.Value 3.; hi = Analyze.Value 5. } -> ()
  | _ -> Alcotest.fail "overlap wrong");
  match Analyze.interval_intersect (iv (v 1.) (v 2.)) (iv (v 3.) (v 4.)) with
  | None -> ()
  | Some _ -> Alcotest.fail "disjoint should be empty"

(* Property: the parser accepts everything our printer can express for
   randomly generated simple expressions. *)
let expr_gen =
  let open QCheck.Gen in
  let lit =
    oneof
      [
        map (fun i -> Ast.Lit (Ast.Int i)) (int_range 0 1000);
        return (Ast.Column (None, "a"));
        return (Ast.Column (Some "t", "b"));
      ]
  in
  let rec expr n =
    if n = 0 then lit
    else
      frequency
        [
          (2, lit);
          ( 3,
            map2
              (fun a b -> Ast.Binop (Ast.Add, a, b))
              (expr (n / 2)) (expr (n / 2)) );
          ( 3,
            map2
              (fun a b -> Ast.Binop (Ast.Lt, a, b))
              (lit) (expr (n / 2)) );
          (1, map (fun e -> Ast.Not e) (expr (n / 2)));
        ]
  in
  expr 4

let prop_expr_roundtrip =
  QCheck.Test.make ~count:200 ~name:"printed expressions reparse"
    (QCheck.make expr_gen) (fun e ->
      let printed = Fmt.str "%a" Ast.pp_expr e in
      match Parser.parse_expr printed with
      | _ -> true
      | exception Parser.Parse_error _ -> false)

(* Fuzz: statements cut from the TPC-H queries and a few writes, mutated
   at the lexeme level (pieces deleted, duplicated, replaced or swapped),
   truncated, or spliced onto another statement.  Analyzing any of them
   must succeed or raise Parse_error, nothing else. *)
let fuzz_seeds =
  Array.of_list
    (List.map snd Cdbs_workloads.Tpch_queries.all
    @ [
        "INSERT INTO region (r_regionkey, r_name, r_comment) VALUES (7, \
         'x', 'y')";
        "INSERT INTO nation VALUES (30, 'n', 1, 'c');";
        "UPDATE orders SET o_totalprice = o_totalprice * 1.1, o_comment = \
         'z' WHERE o_orderkey IN (1, 2) AND o_custkey BETWEEN 3 AND 9";
        "DELETE FROM lineitem WHERE l_orderkey = 4 OR l_comment LIKE 'a%'";
        "SELECT * FROM part p, partsupp ps WHERE p.p_partkey = \
         ps.ps_partkey AND p.p_size IS NOT NULL ORDER BY 1 DESC LIMIT 3";
      ])

(* Lexeme-sized pieces: runs of word characters, runs of blanks, and
   single other characters. *)
let pieces s =
  let kind c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> 0
    | ' ' | '\t' | '\n' -> 1
    | _ -> 2
  in
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else begin
      let j = ref (i + 1) in
      if kind s.[i] < 2 then
        while !j < n && kind s.[!j] = kind s.[i] do incr j done;
      go !j (String.sub s i (!j - i) :: acc)
    end
  in
  Array.of_list (go 0 [])

let fuzz_pieces = Array.map pieces fuzz_seeds
let fuzz_pool = Array.concat (Array.to_list fuzz_pieces)

let mutated_statement =
  let open QCheck.Gen in
  let mutate p =
    let n = Array.length p in
    let sub a i len =
      let i = min i (Array.length a) in
      Array.sub a i (max 0 (min len (Array.length a - i)))
    in
    int_bound 5 >>= fun op ->
    int_bound (max 0 (n - 1)) >>= fun i ->
    int_range 1 4 >>= fun len ->
    int_bound (Array.length fuzz_pool - 1) >>= fun r ->
    int_bound (Array.length fuzz_pieces - 1) >|= fun other ->
    match op with
    | 0 -> Array.append (sub p 0 i) (sub p (i + len) n)
    | 1 -> Array.concat [ sub p 0 (i + len); sub p i len; sub p (i + len) n ]
    | 2 -> Array.concat [ sub p 0 i; [| fuzz_pool.(r) |]; sub p (i + 1) n ]
    | 3 ->
        let q = Array.copy p in
        let j = min (n - 1) (i + len) in
        if n > 0 then begin
          q.(i) <- p.(j);
          q.(j) <- p.(i)
        end;
        q
    | 4 -> sub p 0 i
    | _ ->
        let o = fuzz_pieces.(other) in
        let k = Array.length o in
        Array.append (sub p 0 i) (sub o (k * i / max 1 n) k)
  in
  int_bound (Array.length fuzz_pieces - 1) >>= fun s ->
  int_range 1 3 >>= fun rounds ->
  let rec go p k = if k = 0 then return p else mutate p >>= fun p -> go p (k - 1) in
  go fuzz_pieces.(s) rounds >|= fun p -> String.concat "" (Array.to_list p)

let prop_mutated_statements_raise_parse_error =
  let schema = Cdbs_storage.Schema.to_assoc Cdbs_workloads.Tpch.schema in
  QCheck.Test.make ~count:20_000
    ~name:"analyze: mutated statements raise only Parse_error"
    (QCheck.make ~print:(Printf.sprintf "%S") mutated_statement) (fun sql ->
      match Analyze.footprint_of_sql ~schema sql with
      | _ -> true
      | exception Parser.Parse_error _ -> true)

let suite =
  [
    Alcotest.test_case "lexer: basic" `Quick test_lexer_basic;
    Alcotest.test_case "lexer: strings" `Quick test_lexer_strings;
    Alcotest.test_case "lexer: operators" `Quick test_lexer_operators;
    Alcotest.test_case "lexer: error offset" `Quick test_lexer_error;
    Alcotest.test_case "lexer: unterminated string" `Quick
      test_lexer_unterminated_string;
    Alcotest.test_case "parser: select shape" `Quick test_parse_select_shape;
    Alcotest.test_case "parser: joins" `Quick test_parse_join;
    Alcotest.test_case "parser: comma join" `Quick test_parse_comma_join;
    Alcotest.test_case "parser: group/having" `Quick test_parse_group_having;
    Alcotest.test_case "parser: insert" `Quick test_parse_insert;
    Alcotest.test_case "parser: update" `Quick test_parse_update;
    Alcotest.test_case "parser: delete" `Quick test_parse_delete;
    Alcotest.test_case "parser: boolean precedence" `Quick
      test_parse_precedence;
    Alcotest.test_case "parser: arithmetic precedence" `Quick
      test_parse_arith_precedence;
    Alcotest.test_case "parser: IN/LIKE/IS NULL" `Quick test_parse_in_like_null;
    Alcotest.test_case "parser: error cases" `Quick test_parse_errors;
    Alcotest.test_case "analyze: tables" `Quick test_footprint_tables;
    Alcotest.test_case "analyze: column resolution" `Quick
      test_footprint_columns_resolved;
    Alcotest.test_case "analyze: aliases" `Quick test_footprint_alias;
    Alcotest.test_case "analyze: unqualified without schema" `Quick
      test_footprint_unqualified_single_table_no_schema;
    Alcotest.test_case "analyze: star expansion" `Quick test_footprint_star;
    Alcotest.test_case "analyze: update footprint" `Quick
      test_footprint_update;
    Alcotest.test_case "analyze: insert all columns" `Quick
      test_footprint_insert_all_columns;
    Alcotest.test_case "analyze: predicate ranges" `Quick
      test_predicate_ranges;
    Alcotest.test_case "analyze: flipped comparison" `Quick
      test_predicate_flipped;
    Alcotest.test_case "analyze: between" `Quick test_predicate_between;
    Alcotest.test_case "analyze: OR stays conservative" `Quick
      test_predicate_disjunction_conservative;
    Alcotest.test_case "analyze: interval intersection" `Quick
      test_interval_intersect;
    QCheck_alcotest.to_alcotest prop_expr_roundtrip;
    QCheck_alcotest.to_alcotest prop_mutated_statements_raise_parse_error;
  ]
