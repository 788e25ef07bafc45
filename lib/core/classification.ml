module Analyze = Cdbs_sql.Analyze
module Schema = Cdbs_storage.Schema

type granularity =
  | Single
  | By_table
  | By_column
  | By_predicate of (string * string * float list) list

(* Range boundaries for a split spec: interior points plus infinities. *)
let boundaries splits = (neg_infinity :: splits) @ [ infinity ]

let ranges_of_table ~size_of table column splits =
  let bounds = boundaries splits in
  let rec pairs = function
    | lo :: (hi :: _ as rest) ->
        let kind = Fragment.Range { table; column; lo; hi } in
        { Fragment.kind; size = size_of kind } :: pairs rest
    | _ -> []
  in
  pairs bounds

let interval_overlaps (iv : Analyze.interval) ~lo ~hi =
  let lo_ok =
    match iv.hi with
    | Analyze.Neg_inf -> false
    | Analyze.Pos_inf -> true
    | Analyze.Value v -> v >= lo
  in
  let hi_ok =
    match iv.lo with
    | Analyze.Pos_inf -> false
    | Analyze.Neg_inf -> true
    | Analyze.Value v -> v < hi
  in
  lo_ok && hi_ok

let fragments_of_footprint ~size_of granularity (fp : Analyze.footprint) =
  match granularity with
  | Single | By_table ->
      Fragment.of_footprint ~granularity:`Table ~size_of fp
  | By_column -> Fragment.of_footprint ~granularity:`Column ~size_of fp
  | By_predicate specs ->
      List.fold_left
        (fun acc table ->
          match
            List.find_opt (fun (t, _, _) -> t = table) specs
          with
          | None ->
              let kind = Fragment.Table table in
              Fragment.Set.add { Fragment.kind; size = size_of kind } acc
          | Some (_, column, splits) ->
              let all = ranges_of_table ~size_of table column splits in
              let restriction =
                List.assoc_opt (table, column) fp.Analyze.predicates
              in
              let selected =
                match restriction with
                | None -> all
                | Some iv ->
                    List.filter
                      (fun f ->
                        match f.Fragment.kind with
                        | Fragment.Range { lo; hi; _ } ->
                            interval_overlaps iv ~lo ~hi
                        | _ -> true)
                      all
              in
              (* An empty (contradictory) predicate still touches the
                 table's metadata; keep the first range so the class is
                 non-empty. *)
              let selected = if selected = [] then [ List.hd all ] else selected in
              List.fold_left (fun acc f -> Fragment.Set.add f acc) acc selected)
        Fragment.Set.empty fp.Analyze.tables

(* Classify pre-analyzed footprints with explicit costs; used when the
   workload is defined statistically rather than as SQL text (the paper's
   e-learning trace had no query text, Sec. 5). *)
let classify_footprints ~size_of granularity
    (footprints : (Analyze.footprint * float) list) : Workload.t =
  (* Group by (kind, fragment set); accumulate cost. *)
  let groups : (bool * string list, Fragment.Set.t * float ref) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun ((fp : Analyze.footprint), cost) ->
      let fragments =
        match granularity with
        | Single ->
            (* Everything collapses into one class per kind. *)
            fragments_of_footprint ~size_of By_table fp
        | g -> fragments_of_footprint ~size_of g fp
      in
      if not (Fragment.Set.is_empty fragments) then begin
        let key =
          match granularity with
          | Single -> (fp.Analyze.is_update, [ "*" ])
          | _ ->
              ( fp.Analyze.is_update,
                List.map Fragment.name (Fragment.Set.elements fragments) )
        in
        match Hashtbl.find_opt groups key with
        | Some (frs, acc) ->
            Hashtbl.replace groups key (Fragment.Set.union frs fragments, acc);
            acc := !acc +. cost
        | None -> Hashtbl.add groups key (fragments, ref cost)
      end)
    footprints;
  let total =
    Hashtbl.fold (fun _ (_, c) acc -> acc +. !c) groups 0.
  in
  let total = if total <= 0. then 1. else total in
  let reads = ref [] and updates = ref [] in
  Hashtbl.iter
    (fun (is_update, _) (fragments, cost) ->
      let entry = (fragments, !cost /. total) in
      if is_update then updates := entry :: !updates
      else reads := entry :: !reads)
    groups;
  let by_weight = List.sort (fun (_, a) (_, b) -> Stdlib.compare b a) in
  let name_all prefix entries =
    List.mapi
      (fun i (fragments, weight) ->
        {
          Query_class.id = Printf.sprintf "%s%d" prefix (i + 1);
          kind = (if prefix = "Q" then Query_class.Read else Query_class.Update);
          fragments;
          weight;
        })
      entries
  in
  Workload.make
    ~reads:(name_all "Q" (by_weight !reads))
    ~updates:(name_all "U" (by_weight !updates))

let classify ~schema ~size_of granularity journal : Workload.t =
  let assoc = Schema.to_assoc schema in
  let footprints =
    List.filter_map
      (fun (e : Journal.entry) ->
        match Analyze.footprint_of_sql ~schema:assoc e.sql with
        | fp -> Some (fp, e.cost)
        | exception Cdbs_sql.Parser.Parse_error _ -> None)
      (Journal.entries journal)
  in
  classify_footprints ~size_of granularity footprints

let default_sizes ~schema ~rows kind =
  let bytes_per_mb = 1024. *. 1024. in
  let row_count table =
    float_of_int (Option.value ~default:0 (List.assoc_opt table rows))
  in
  match kind with
  | Fragment.Table name -> (
      match Schema.find_table schema name with
      | None -> 0.
      | Some tbl ->
          row_count name *. float_of_int (Schema.row_width tbl) /. bytes_per_mb)
  | Fragment.Column { table; column } -> (
      match Schema.find_table schema table with
      | None -> 0.
      | Some tbl -> (
          match
            List.find_opt
              (fun c -> c.Schema.col_name = column)
              tbl.Schema.columns
          with
          | None -> 0.
          | Some c ->
              row_count table
              *. float_of_int (Schema.column_width c.Schema.col_type)
              /. bytes_per_mb))
  | Fragment.Range { table; lo; hi; _ } -> (
      match Schema.find_table schema table with
      | None -> 0.
      | Some tbl ->
          let full =
            row_count table *. float_of_int (Schema.row_width tbl)
            /. bytes_per_mb
          in
          (* The kind alone does not reveal how many ranges the table was
             cut into, so each range is charged a nominal quarter of the
             table; callers needing exact range sizes pass their own
             [size_of]. *)
          ignore lo;
          ignore hi;
          full /. 4.)
