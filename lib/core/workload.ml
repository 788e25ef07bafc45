type t = {
  reads : Query_class.t list;
  updates : Query_class.t list;
}

let make ~reads ~updates = { reads; updates }
let all_classes t = t.reads @ t.updates

let fragments t =
  List.fold_left
    (fun acc c -> Fragment.Set.union acc c.Query_class.fragments)
    Fragment.Set.empty (all_classes t)

let updates_of t c =
  List.filter (fun u -> Query_class.overlaps u c) t.updates

let update_weight_of t c =
  List.fold_left
    (fun acc u -> acc +. u.Query_class.weight)
    0. (updates_of t c)

let total_weight t =
  List.fold_left
    (fun acc c -> acc +. c.Query_class.weight)
    0. (all_classes t)

let normalize t =
  let total = total_weight t in
  if total <= 0. then t
  else
    let scale c =
      { c with Query_class.weight = c.Query_class.weight /. total }
    in
    { reads = List.map scale t.reads; updates = List.map scale t.updates }

let find t id =
  List.find_opt (fun c -> c.Query_class.id = id) (all_classes t)

let pp ppf t =
  Fmt.pf ppf "@[<v>reads:@,%a@,updates:@,%a@]"
    Fmt.(list Query_class.pp)
    t.reads
    Fmt.(list Query_class.pp)
    t.updates
