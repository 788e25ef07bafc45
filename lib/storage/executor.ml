open Cdbs_sql.Ast

type result =
  | Rows of { columns : string list; rows : Value.t array list }
  | Affected of int

let ( let* ) = Result.bind

(* An evaluation error: raised by a compiled expression exactly where, and
   only when, evaluating the statement meets it; [execute] returns it as
   [Error]. *)
exception Failed of string

let fail msg = raise (Failed msg)

(* LIKE patterns: % matches any sequence, _ any single character. *)
let like_match pattern s =
  let np = String.length pattern and ns = String.length s in
  let rec go pi si =
    if pi = np then si = ns
    else
      match pattern.[pi] with
      | '%' ->
          let rec try_from k = k <= ns && (go (pi + 1) k || try_from (k + 1)) in
          try_from si
      | '_' -> si < ns && go (pi + 1) (si + 1)
      | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* Compiling expressions                                               *)
(* ------------------------------------------------------------------ *)

(* An expression compiled against rows of type ['r]: its value, and its
   truth ([Value.truthy] of the value) without building a [Bool]. *)
type 'r compiled = { value : 'r -> Value.t; test : 'r -> bool }

let vtrue = Value.Bool true
let vfalse = Value.Bool false
let boolean test = { value = (fun r -> if test r then vtrue else vfalse); test }

let failing msg =
  let f _ = fail msg in
  { value = f; test = f }

let holds = function
  | Eq -> fun a b -> Value.equal a b
  | Neq -> fun a b -> not (Value.equal a b)
  | Lt -> fun a b -> Value.compare a b < 0
  | Le -> fun a b -> Value.compare a b <= 0
  | Gt -> fun a b -> Value.compare a b > 0
  | Ge -> fun a b -> Value.compare a b >= 0
  | Add | Sub | Mul | Div | And | Or -> invalid_arg "Executor.holds"

let arith = function
  | Add -> Value.add
  | Sub -> Value.sub
  | Mul -> Value.mul
  | Div -> Value.div
  | Eq | Neq | Lt | Le | Gt | Ge | And | Or -> invalid_arg "Executor.arith"

(* [column] gives the reader of a column reference, or [None] when the
   name resolves to no column: that compiles to a node that fails when it
   is evaluated, so an error stays as lazy as the rows that reach it.
   Operands are evaluated left to right; AND, OR and IN stop early. *)
let rec compile column (e : expr) =
  match e with
  | Lit l ->
      let v = Value.of_literal l in
      let b = Value.truthy v in
      { value = (fun _ -> v); test = (fun _ -> b) }
  | Star -> failing "'*' outside of COUNT"
  | Column (q, c) -> (
      match column (q, c) with
      | Some get -> { value = get; test = (fun r -> Value.truthy (get r)) }
      | None ->
          failing
            (Printf.sprintf "unknown column %s%s"
               (match q with Some t -> t ^ "." | None -> "")
               c))
  | Call (name, _) ->
      failing (Printf.sprintf "function %s outside of aggregation context" name)
  | Not a ->
      let a = compile column a in
      boolean (fun r -> not (a.test r))
  | Binop (And, a, b) ->
      let a = compile column a and b = compile column b in
      boolean (fun r -> a.test r && b.test r)
  | Binop (Or, a, b) ->
      let a = compile column a and b = compile column b in
      boolean (fun r -> a.test r || b.test r)
  | Binop (((Eq | Neq | Lt | Le | Gt | Ge) as op), a, b) ->
      let a = compile column a and b = compile column b and holds = holds op in
      boolean (fun r ->
          let va = a.value r in
          holds va (b.value r))
  | Binop (((Add | Sub | Mul | Div) as op), a, b) ->
      let a = compile column a and b = compile column b and f = arith op in
      let value r =
        let va = a.value r in
        f va (b.value r)
      in
      { value; test = (fun r -> Value.truthy (value r)) }
  | Between (e, lo, hi) ->
      let e = compile column e
      and lo = compile column lo
      and hi = compile column hi in
      boolean (fun r ->
          let v = e.value r in
          let l = lo.value r in
          let h = hi.value r in
          Value.compare v l >= 0 && Value.compare v h <= 0)
  | In_list (e, es) ->
      let e = compile column e and es = List.map (compile column) es in
      boolean (fun r ->
          let v = e.value r in
          List.exists (fun x -> Value.equal v (x.value r)) es)
  | Like (e, pat) ->
      let e = compile column e in
      boolean (fun r ->
          match e.value r with Value.Str s -> like_match pat s | _ -> false)

(* Whether evaluating [e] can fail: only an unresolved name, a [*] or a
   function call can. *)
let rec cannot_fail resolves = function
  | Lit _ -> true
  | Star | Call _ -> false
  | Column (q, c) -> resolves (q, c)
  | Not a | Like (a, _) -> cannot_fail resolves a
  | Binop (_, a, b) -> cannot_fail resolves a && cannot_fail resolves b
  | Between (a, b, c) -> List.for_all (cannot_fail resolves) [ a; b; c ]
  | In_list (a, es) -> List.for_all (cannot_fail resolves) (a :: es)

let rec columns_of acc = function
  | Column (q, c) -> (q, c) :: acc
  | Lit _ | Star -> acc
  | Not a | Like (a, _) -> columns_of acc a
  | Binop (_, a, b) -> columns_of (columns_of acc a) b
  | Call (_, es) -> List.fold_left columns_of acc es
  | Between (a, b, c) -> List.fold_left columns_of acc [ a; b; c ]
  | In_list (a, es) -> List.fold_left columns_of acc (a :: es)

let rec conjuncts = function
  | Binop (And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* ------------------------------------------------------------------ *)
(* Resolving columns against the FROM/JOIN layout                       *)
(* ------------------------------------------------------------------ *)

(* One FROM or JOIN table: the names that qualify it (table name, then
   alias) and its columns. *)
type instance = { names : string list; tbl : Table.t; cols : string array }

let instance tref tbl =
  {
    names = tref.table :: Option.to_list tref.tbl_alias;
    tbl;
    cols = Array.of_list (Schema.column_names (Table.schema tbl));
  }

let position_in inst c =
  let rec find i =
    if i >= Array.length inst.cols then None
    else if inst.cols.(i) = c then Some i
    else find (i + 1)
  in
  find 0

(* The first of the layout's first [width] tables that the qualifier names
   (any table, without one) and that has the column; in it, the first
   column of that name. *)
let resolve layout width (q, c) =
  let rec go k =
    if k >= width then None
    else if match q with Some qual -> List.mem qual layout.(k).names | None -> true
    then match position_in layout.(k) c with Some i -> Some (k, i) | None -> go (k + 1)
    else go (k + 1)
  in
  go 0

(* A bound row holds the stored row of each table joined so far. *)
let bound_column layout width col =
  Option.map
    (fun (k, i) (r : Value.t array array) -> r.(k).(i))
    (resolve layout width col)

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

let aggregate_functions = [ "count"; "sum"; "avg"; "min"; "max" ]
let is_aggregate f = List.mem (String.lowercase_ascii f) aggregate_functions

let rec has_aggregate = function
  | Call (f, _) when is_aggregate f -> true
  | Call (_, args) -> List.exists has_aggregate args
  | Binop (_, a, b) -> has_aggregate a || has_aggregate b
  | Not e -> has_aggregate e
  | Between (a, b, c) -> List.exists has_aggregate [ a; b; c ]
  | In_list (e, es) -> List.exists has_aggregate (e :: es)
  | Like (e, _) -> has_aggregate e
  | Lit _ | Column _ | Star -> false

(* One aggregate over a group's values, newest row first: sums add from
   the group's last row to its first, and ties of min/max keep the later
   row's value. *)
let reduce f values =
  let numeric =
    List.filter_map Value.to_float
      (List.filter (fun v -> v <> Value.Null) values)
  in
  let non_null = List.filter (fun v -> v <> Value.Null) values in
  let pick better =
    match non_null with
    | [] -> Value.Null
    | v :: rest -> List.fold_left (fun a b -> if better b a then b else a) v rest
  in
  match f with
  | "count" -> Value.Int (List.length non_null)
  | "sum" -> Value.Float (List.fold_left ( +. ) 0. numeric)
  | "avg" ->
      if numeric = [] then Value.Null
      else
        Value.Float
          (List.fold_left ( +. ) 0. numeric /. float_of_int (List.length numeric))
  | "min" -> pick (fun b a -> Value.compare b a < 0)
  | "max" -> pick (fun b a -> Value.compare b a > 0)
  | _ -> fail ("unsupported aggregate " ^ f)

(* An expression over a group of bound rows: aggregate calls reduce the
   group, operators combine both sides (AND and OR included, without
   stopping early), and anything else is evaluated on the group's first
   row ([NULL] for an empty group). *)
let rec compile_agg column (e : expr) : Value.t array array list -> Value.t =
  match e with
  | Call (f, args) when is_aggregate f -> (
      let f = String.lowercase_ascii f in
      match (f, args) with
      | "count", ([ Star ] | []) -> fun group -> Value.Int (List.length group)
      | _, [ arg ] ->
          let arg = compile column arg in
          fun group ->
            reduce f (List.fold_left (fun acc row -> arg.value row :: acc) [] group)
      | _ -> fun _ -> fail ("bad arguments to aggregate " ^ f))
  | Binop (op, a, b) ->
      let a = compile_agg column a and b = compile_agg column b in
      let combine =
        match op with
        | Add | Sub | Mul | Div -> arith op
        | Eq | Neq | Lt | Le | Gt | Ge ->
            let holds = holds op in
            fun va vb -> Value.Bool (holds va vb)
        | And -> fun va vb -> Value.Bool (Value.truthy va && Value.truthy vb)
        | Or -> fun va vb -> Value.Bool (Value.truthy va || Value.truthy vb)
      in
      fun group ->
        let va = a group in
        combine va (b group)
  | e -> (
      let e = compile column e in
      function [] -> Value.Null | row :: _ -> e.value row)

(* ------------------------------------------------------------------ *)
(* SELECT                                                              *)
(* ------------------------------------------------------------------ *)

let item_name i (item : select_item) =
  match (item.alias, item.expr) with
  | Some a, _ -> a
  | None, Column (_, c) -> c
  | None, Call (f, _) -> String.lowercase_ascii f
  | None, Star -> "*"
  | None, _ -> Printf.sprintf "col%d" i

let expand_star db (s : select) : (select_item list, string) Result.t =
  let expand_one tref =
    match Database.table db tref.table with
    | None -> Error ("no table " ^ tref.table)
    | Some tbl ->
        Ok
          (List.map
             (fun c -> { expr = Column (Some tref.table, c); alias = Some c })
             (Schema.column_names (Table.schema tbl)))
  in
  let rec go acc = function
    | [] -> Ok (List.concat (List.rev acc))
    | item :: rest -> (
        match item.expr with
        | Star ->
            let all = s.from :: List.map (fun j -> j.jtable) s.joins in
            let* expanded =
              List.fold_left
                (fun acc tref ->
                  let* acc = acc in
                  let* items = expand_one tref in
                  Ok (acc @ items))
                (Ok []) all
            in
            go ([ expanded ] @ acc) rest
        | _ -> go ([ [ item ] ] @ acc) rest)
  in
  go [] s.items

(* Detect an equi-join condition [a.x = b.y] so the join can be hashed. *)
let equi_join_key on =
  match on with
  | Some (Binop (Eq, Column (qa, ca), Column (qb, cb))) ->
      Some ((qa, ca), (qb, cb))
  | _ -> None

(* The key naming a column of the joined table alone is its key; the
   other one is the left side's. *)
let join_keys inst ka kb =
  if resolve [| inst |] 1 ka <> None then (ka, kb) else (kb, ka)

(* FROM, then each JOIN in order, then WHERE, grouping, items, ORDER BY,
   DISTINCT and LIMIT, failing with the first error that order meets.
   When no part of the WHERE or of an ON can fail, each WHERE conjunct
   instead filters as soon as its tables are bound: one naming a single
   table filters that table's scan, one naming several filters the join
   that binds the last of them.  Rows keep their order either way. *)
let select db (s : select) items =
  let trefs = s.from :: List.map (fun j -> j.jtable) s.joins in
  (* The tables up to the first missing one; reaching that one fails. *)
  let rec bind acc = function
    | [] -> (List.rev acc, None)
    | tref :: rest -> (
        match Database.table db tref.table with
        | None -> (List.rev acc, Some tref.table)
        | Some tbl -> bind (instance tref tbl :: acc) rest)
  in
  let bound, missing = bind [] trefs in
  let layout = Array.of_list bound in
  let n = Array.length layout in
  let joins = Array.of_list s.joins in
  let resolves width col = resolve layout width col <> None in
  (* Join [k] binds table [k], 1 <= k < n. *)
  let join_cannot_fail k =
    let j = joins.(k - 1) in
    match (equi_join_key j.on, j.on) with
    | Some (ka, kb), _ -> resolves k (snd (join_keys layout.(k) ka kb))
    | None, Some cond -> cannot_fail (resolves (k + 1)) cond
    | None, None -> true
  in
  let scan_filters = Array.make n [] and join_filters = Array.make n [] in
  (* A conjunct naming one table (or none) filters that table's (the
     first table's) scan; one naming several, the join of the last. *)
  let place c =
    let tables =
      List.sort_uniq compare
        (List.map (fun col -> fst (Option.get (resolve layout n col))) (columns_of [] c))
    in
    let k = List.fold_left max 0 tables in
    if List.length tables <= 1 then
      let column col =
        Option.map (fun (_, i) (row : Value.t array) -> row.(i)) (resolve layout n col)
      in
      scan_filters.(k) <- (compile column c).test :: scan_filters.(k)
    else join_filters.(k) <- (compile (bound_column layout n) c).test :: join_filters.(k)
  in
  let residual =
    match s.where with
    | Some w
      when missing = None
           && cannot_fail (resolves n) w
           && List.for_all join_cannot_fail (List.init (max 0 (n - 1)) succ) ->
        List.iter place (List.rev (conjuncts w));
        None
    | Some w -> Some (compile (bound_column layout n) w).test
    | None -> None
  in
  let keep tests x = List.for_all (fun t -> t x) tests in
  (* Table [k]'s stored rows, in table order, past its scan filters. *)
  let scan k =
    let keep_row = keep scan_filters.(k) in
    List.rev
      (Table.fold (fun acc row -> if keep_row row then row :: acc else acc) [] layout.(k).tbl)
  in
  let join left k =
    let j = joins.(k - 1) and inst = layout.(k) in
    let extend lrow m =
      let r = Array.make (k + 1) m in
      Array.blit lrow 0 r 0 k;
      r
    in
    if left = [] then []
    else
      match equi_join_key j.on with
      | Some _ when Table.row_count inst.tbl = 0 -> []
      | Some (ka, kb) -> (
          let right_key, left_key = join_keys inst ka kb in
          match resolve layout k left_key with
          | None -> fail "join key not found on left side of equi-join"
          | Some (lk, li) ->
              (* Each key's rows, last first. *)
              let index = Hashtbl.create 256 in
              (match resolve [| inst |] 1 right_key with
              | Some (_, ri) ->
                  List.iter
                    (fun m ->
                      let key = Value.key m.(ri) in
                      let prev = Option.value ~default:[] (Hashtbl.find_opt index key) in
                      Hashtbl.replace index key (m :: prev))
                    (scan k)
              | None -> ());
              List.concat_map
                (fun (lrow : Value.t array array) ->
                  match Hashtbl.find_opt index (Value.key lrow.(lk).(li)) with
                  | Some ms -> List.map (extend lrow) ms
                  | None -> [])
                left)
      | None ->
          let right = scan k in
          let on =
            match j.on with
            | None -> fun _ -> true
            | Some cond -> (compile (bound_column layout (k + 1)) cond).test
          in
          List.concat_map
            (fun lrow ->
              List.filter_map
                (fun m ->
                  let row = extend lrow m in
                  if on row then Some row else None)
                right)
            left
  in
  if n = 0 then fail ("no table " ^ s.from.table);
  let rows = ref (List.map (fun row -> [| row |]) (scan 0)) in
  for k = 1 to n - 1 do
    rows := List.filter (keep join_filters.(k)) (join !rows k)
  done;
  Option.iter (fun t -> fail ("no table " ^ t)) missing;
  let rows = match residual with None -> !rows | Some w -> List.filter w !rows in
  let column = bound_column layout n in
  let aggregating =
    s.group_by <> [] || List.exists (fun it -> has_aggregate it.expr) items
  in
  let out_rows =
    if aggregating then begin
      (* Hash-group rows by the group-by key, groups in first-seen order. *)
      let key_of =
        List.map
          (fun col ->
            match column col with
            | Some get -> get
            | None -> fun _ -> fail "unknown group-by column")
          s.group_by
      in
      let groups = Hashtbl.create 64 in
      let order = ref [] in
      List.iter
        (fun row ->
          let key = List.map (fun get -> Value.key (get row)) key_of in
          match Hashtbl.find_opt groups key with
          | Some prev -> Hashtbl.replace groups key (row :: prev)
          | None ->
              order := key :: !order;
              Hashtbl.replace groups key [ row ])
        rows;
      let keys =
        if s.group_by = [] && rows = [] then [ [] ]
          (* aggregate over empty input still yields one row *)
        else List.rev !order
      in
      let having = Option.map (compile_agg column) s.having in
      let values = Array.of_list (List.map (fun it -> compile_agg column it.expr) items) in
      List.filter_map
        (fun key ->
          let group =
            List.rev (Option.value ~default:[] (Hashtbl.find_opt groups key))
          in
          match having with
          | Some h when not (Value.truthy (h group)) -> None
          | _ -> Some (Array.map (fun v -> v group) values, group))
        keys
    end
    else
      let values =
        Array.of_list (List.map (fun it -> (compile column it.expr).value) items)
      in
      List.map (fun row -> (Array.map (fun v -> v row) values, [ row ])) rows
  in
  (* ORDER BY: an output column, else the first source row's column. *)
  let columns = List.mapi item_name items in
  let find_output_index (q, c) =
    let rec go i = function
      | [] -> None
      | item :: rest -> (
          match (item.alias, item.expr) with
          | Some a, _ when q = None && a = c -> Some i
          | _, Column (q', c') when c' = c && (q = None || q = q') -> Some i
          | _ -> go (i + 1) rest)
    in
    go 0 items
  in
  let sorted =
    match s.order_by with
    | [] -> List.map fst out_rows
    | order_cols ->
        let sort_keys =
          List.map
            (fun (col, dir) ->
              let key =
                match (find_output_index col, column col) with
                | Some i, _ -> fun vals _ -> vals.(i)
                | None, Some get -> (
                    fun _ group -> match group with row :: _ -> get row | [] -> Value.Null)
                | None, None -> fun _ _ -> Value.Null
              in
              (key, dir))
            order_cols
        in
        let keyed =
          List.map
            (fun (vals, group) ->
              (List.map (fun (key, dir) -> (key vals group, dir)) sort_keys, vals))
            out_rows
        in
        let cmp (ka, _) (kb, _) =
          let rec go = function
            | [] -> 0
            | ((va, dir), (vb, _)) :: rest -> (
                match Value.compare va vb with
                | 0 -> go rest
                | c -> ( match dir with Asc -> c | Desc -> -c))
          in
          go (List.combine ka kb)
        in
        List.map snd (List.stable_sort cmp keyed)
  in
  let deduped =
    if s.distinct then
      let seen = Hashtbl.create 64 in
      List.filter
        (fun vals ->
          let key = Array.fold_right (fun v acc -> Value.key v :: acc) vals [] in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.add seen key ();
            true
          end)
        sorted
    else sorted
  in
  let limited =
    match s.limit with
    | None -> deduped
    | Some n ->
        let rec take k = function
          | [] -> []
          | _ when k = 0 -> []
          | x :: rest -> x :: take (k - 1) rest
        in
        take n deduped
  in
  Rows { columns; rows = limited }

(* ------------------------------------------------------------------ *)
(* DML                                                                 *)
(* ------------------------------------------------------------------ *)

let execute_insert db target columns values =
  match Database.table db target with
  | None -> Error ("no table " ^ target)
  | Some tbl ->
      let schema_cols = Schema.column_names (Table.schema tbl) in
      let cols = if columns = [] then schema_cols else columns in
      if List.length cols <> List.length values then
        Error "INSERT: column/value arity mismatch"
      else
        let bindings =
          List.fold_left2
            (fun acc col e -> (col, (compile (fun _ -> None) e).value ()) :: acc)
            [] cols values
        in
        let row =
          Array.of_list
            (List.map
               (fun c ->
                 Option.value ~default:Value.Null (List.assoc_opt c bindings))
               schema_cols)
        in
        let* () = Table.insert tbl row in
        Ok (Affected 1)

(* UPDATE and DELETE read a column by name alone; a qualifier is ignored. *)
let row_column tbl (_, c) =
  Option.map (fun i (row : Value.t array) -> row.(i)) (Table.column_index tbl c)

let rec leftmost = function Binop (And, a, _) -> leftmost a | e -> e

(* The positions a write's WHERE can hold on, in table order, when its
   leftmost conjunct is [key = literal] on a one-column primary key: only
   the rows whose key equals the literal get past that conjunct, so no
   other row can match or fail.  The key index pairs what [Value.equal]
   pairs and keeps keys unique under it, so one lookup finds the only such
   row; [None] (scan every row) for a number of magnitude 2^53 or more,
   which [Value.equal] may pair with several stored keys. *)
let key_positions tbl where =
  match (Table.primary_key_positions tbl, Option.map leftmost where) with
  | [ p ], Some (Binop (Eq, Column (_, c), Lit l) | Binop (Eq, Lit l, Column (_, c)))
    when Table.column_index tbl c = Some p -> (
      match Value.to_float (Value.of_literal l) with
      | Some f when Float.abs f >= 0x1p53 -> None
      | _ -> Some (Option.to_list (Table.position_of_pk tbl [ Value.of_literal l ])))
  | _ -> None

(* Visit the rows a write's WHERE holds on, in table order.  After a
   failure no further row is visited, but every later row's predicate is
   still evaluated, and the error returned is the last one met. *)
let matching_rows tbl where visit =
  let error = ref None in
  let holds =
    match where with
    | None -> fun _ -> true
    | Some w -> (compile (row_column tbl) w).test
  in
  let check i row =
    match holds row with
    | true -> if !error = None then visit error i row
    | false -> ()
    | exception Failed e -> error := Some e
  in
  (match key_positions tbl where with
  | Some positions -> List.iter (fun i -> check i (Table.get tbl i)) positions
  | None -> Table.iteri check tbl);
  !error

(* A write computes every row's predicate and new values before it
   changes any row, so a failing UPDATE or DELETE changes nothing. *)
let execute_update db target assignments where =
  match Database.table db target with
  | None -> Error ("no table " ^ target)
  | Some tbl -> (
      let sets =
        List.map
          (fun (col, e) -> (col, Table.column_index tbl col, compile (row_column tbl) e))
          assignments
      in
      let changes = ref [] in
      let apply error i row =
        let updated = Array.copy row in
        List.iter
          (fun (col, pos, e) ->
            match pos with
            | None -> error := Some ("UPDATE: unknown column " ^ col)
            | Some p -> (
                match e.value row with
                | v -> updated.(p) <- v
                | exception Failed msg -> error := Some msg))
          sets;
        changes := (i, updated) :: !changes
      in
      match matching_rows tbl where apply with
      | Some e -> Error e
      | None -> (
          let changes = List.rev !changes in
          match Table.replace tbl changes with
          | Ok () -> Ok (Affected (List.length changes))
          | Error e -> Error e))

let execute_delete db target where =
  match Database.table db target with
  | None -> Error ("no table " ^ target)
  | Some tbl -> (
      let doomed = ref [] in
      match matching_rows tbl where (fun _ i _ -> doomed := i :: !doomed) with
      | Some e -> Error e
      | None ->
          Table.delete tbl (List.rev !doomed);
          Ok (Affected (List.length !doomed)))

let execute db (st : statement) : (result, string) Result.t =
  match
    match st with
    | Select s ->
        let* items = expand_star db s in
        Ok (select db s items)
    | Insert { target; columns; values } -> execute_insert db target columns values
    | Update { target; assignments; where } ->
        execute_update db target assignments where
    | Delete { target; where } -> execute_delete db target where
  with
  | result -> result
  | exception Failed e -> Error e

let execute_sql db sql =
  match Cdbs_sql.Parser.parse sql with
  | exception Cdbs_sql.Parser.Parse_error msg -> Error ("parse error: " ^ msg)
  | st -> execute db st
