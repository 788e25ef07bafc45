open Ast

type bound = Neg_inf | Pos_inf | Value of float

type interval = {
  lo : bound;
  hi : bound;
}

type footprint = {
  tables : string list;
  columns : (string * string) list;
  predicates : ((string * string) * interval) list;
  is_update : bool;
}

let full_range = { lo = Neg_inf; hi = Pos_inf }

let interval_intersect a b =
  let lo =
    match (a.lo, b.lo) with
    | Neg_inf, x | x, Neg_inf -> x
    | Pos_inf, _ | _, Pos_inf -> Pos_inf
    | Value x, Value y -> Value (max x y)
  in
  let hi =
    match (a.hi, b.hi) with
    | Pos_inf, x | x, Pos_inf -> x
    | Neg_inf, _ | _, Neg_inf -> Neg_inf
    | Value x, Value y -> Value (min x y)
  in
  match (lo, hi) with
  | Value l, Value h when l > h -> None
  | Pos_inf, _ | _, Neg_inf -> None
  | _ -> Some { lo; hi }

(* Alias environment: alias or table name -> table name. *)
type env = {
  aliases : (string * string) list;
  schema : (string * string list) list;
}

let resolve_qualifier env q =
  match List.assoc_opt q env.aliases with Some t -> t | None -> q

(* Resolve an unqualified column: the table in scope whose schema contains
   it; if the schema is unknown, attribute it to the sole table in scope or
   "?" when ambiguous. *)
let resolve_unqualified env col =
  let in_scope =
    List.sort_uniq String.compare (List.map snd env.aliases)
  in
  let owners =
    List.filter
      (fun t ->
        match List.assoc_opt t env.schema with
        | Some cols -> List.mem col cols
        | None -> false)
      in_scope
  in
  match (owners, in_scope) with
  | t :: _, _ -> t
  | [], [ t ] -> t
  | [], _ -> "?"

let resolve env (qualifier, col) =
  match qualifier with
  | Some q -> (resolve_qualifier env q, col)
  | None -> (resolve_unqualified env col, col)

let rec columns_of_expr env acc = function
  | Lit _ | Star -> acc
  | Column (q, c) -> resolve env (q, c) :: acc
  | Binop (_, a, b) -> columns_of_expr env (columns_of_expr env acc a) b
  | Not e -> columns_of_expr env acc e
  | Between (e, lo, hi) ->
      columns_of_expr env (columns_of_expr env (columns_of_expr env acc e) lo) hi
  | In_list (e, es) ->
      List.fold_left (columns_of_expr env) (columns_of_expr env acc e) es
  | Like (e, _) -> columns_of_expr env acc e
  | Call (_, args) -> List.fold_left (columns_of_expr env) acc args

let literal_value = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Bool b -> Some (if b then 1. else 0.)
  | String _ | Null -> None

(* Extract per-column range restrictions from the conjunctive skeleton of a
   predicate.  Disjunctions widen to the full range (conservative). *)
let rec ranges_of_expr env = function
  | Binop (And, a, b) ->
      let merge ra rb =
        List.fold_left
          (fun acc (col, iv) ->
            match List.assoc_opt col acc with
            | None -> (col, iv) :: acc
            | Some prev ->
                let merged =
                  match interval_intersect prev iv with
                  | Some m -> m
                  | None -> (* contradictory; keep empty-ish point *) prev
                in
                (col, merged) :: List.remove_assoc col acc)
          ra rb
      in
      merge (ranges_of_expr env a) (ranges_of_expr env b)
  | Binop (((Eq | Lt | Le | Gt | Ge) as op), Column (q, c), Lit l)
  | Binop
      ( ((Eq | Lt | Le | Gt | Ge) as op),
        Lit l,
        Column (q, c) )
    when literal_value l <> None -> (
      let v = Option.get (literal_value l) in
      let col = resolve env (q, c) in
      let iv =
        match op with
        | Eq -> { lo = Value v; hi = Value v }
        | Lt | Le -> { lo = Neg_inf; hi = Value v }
        | Gt | Ge -> { lo = Value v; hi = Pos_inf }
        | _ -> full_range
      in
      [ (col, iv) ])
  | Between (Column (q, c), Lit l1, Lit l2)
    when literal_value l1 <> None && literal_value l2 <> None ->
      let col = resolve env (q, c) in
      [
        ( col,
          {
            lo = Value (Option.get (literal_value l1));
            hi = Value (Option.get (literal_value l2));
          } );
      ]
  | _ -> []

(* When a literal is on the left ("5 < x") the direction flips; handle by
   rewriting such comparisons before extraction. *)
let rec normalize_comparisons = function
  | Binop (Lt, (Lit _ as l), rhs) -> Binop (Gt, rhs, l)
  | Binop (Le, (Lit _ as l), rhs) -> Binop (Ge, rhs, l)
  | Binop (Gt, (Lit _ as l), rhs) -> Binop (Lt, rhs, l)
  | Binop (Ge, (Lit _ as l), rhs) -> Binop (Le, rhs, l)
  | Binop (And, a, b) ->
      Binop (And, normalize_comparisons a, normalize_comparisons b)
  | Binop (Or, a, b) ->
      Binop (Or, normalize_comparisons a, normalize_comparisons b)
  | e -> e

let dedup_sorted compare l = List.sort_uniq compare l

let schema_columns env table =
  match List.assoc_opt table env.schema with Some cols -> cols | None -> []

let footprint_of_statement ?(schema = []) (st : statement) : footprint =
  match st with
  | Select s ->
      let tables = s.from :: List.map (fun j -> j.jtable) s.joins in
      let aliases =
        List.map
          (fun tr ->
            ( (match tr.tbl_alias with Some a -> a | None -> tr.table),
              tr.table ))
          tables
        @ List.map (fun tr -> (tr.table, tr.table)) tables
      in
      let env = { aliases; schema } in
      let cols = ref [] in
      let add_expr e = cols := columns_of_expr env !cols e in
      List.iter
        (fun item ->
          match item.expr with
          | Star ->
              List.iter
                (fun tr ->
                  List.iter
                    (fun c -> cols := (tr.table, c) :: !cols)
                    (schema_columns env tr.table))
                tables
          | e -> add_expr e)
        s.items;
      List.iter (fun j -> Option.iter add_expr j.on) s.joins;
      Option.iter add_expr s.where;
      List.iter (fun c -> cols := resolve env c :: !cols) s.group_by;
      Option.iter add_expr s.having;
      (* ORDER BY may name select-list aliases; those are not base
         columns. *)
      let aliases = List.filter_map (fun item -> item.alias) s.items in
      List.iter
        (fun (c, _) ->
          match c with
          | None, name when List.mem name aliases -> ()
          | c -> cols := resolve env c :: !cols)
        s.order_by;
      let predicates =
        match s.where with
        | None -> []
        | Some w -> ranges_of_expr env (normalize_comparisons w)
      in
      {
        tables =
          dedup_sorted String.compare (List.map (fun tr -> tr.table) tables);
        columns = dedup_sorted compare !cols;
        predicates;
        is_update = false;
      }
  | Insert { target; columns; values } ->
      let cols =
        match columns with
        | [] -> List.map (fun c -> (target, c)) (match List.assoc_opt target schema with Some cs -> cs | None -> [])
        | cs -> List.map (fun c -> (target, c)) cs
      in
      (* An insert lands in the horizontal range containing its literal
         values: expose each literal column as a point restriction so
         predicate-based classification places the insert with the right
         range fragment. *)
      let predicates =
        if columns = [] then []
        else
          List.concat
            (List.map2
               (fun col v ->
                 match v with
                 | Lit l -> (
                     match literal_value l with
                     | Some x ->
                         [ ((target, col), { lo = Value x; hi = Value x }) ]
                     | None -> [])
                 | _ -> [])
               columns values)
      in
      {
        tables = [ target ];
        columns = dedup_sorted compare cols;
        predicates;
        is_update = true;
      }
  | Update { target; assignments; where } ->
      let env = { aliases = [ (target, target) ]; schema } in
      let cols = ref (List.map (fun (c, _) -> (target, c)) assignments) in
      List.iter
        (fun (_, e) -> cols := columns_of_expr env !cols e)
        assignments;
      Option.iter (fun w -> cols := columns_of_expr env !cols w) where;
      let predicates =
        match where with
        | None -> []
        | Some w -> ranges_of_expr env (normalize_comparisons w)
      in
      {
        tables = [ target ];
        columns = dedup_sorted compare !cols;
        predicates;
        is_update = true;
      }
  | Delete { target; where } ->
      let env = { aliases = [ (target, target) ]; schema } in
      let cols = ref [] in
      Option.iter (fun w -> cols := columns_of_expr env !cols w) where;
      let predicates =
        match where with
        | None -> []
        | Some w -> ranges_of_expr env (normalize_comparisons w)
      in
      {
        tables = [ target ];
        columns = dedup_sorted compare !cols;
        predicates;
        is_update = true;
      }

let footprint_of_sql ?schema sql =
  footprint_of_statement ?schema (Parser.parse sql)
