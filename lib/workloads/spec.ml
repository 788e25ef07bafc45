module Schema = Cdbs_storage.Schema
module Fragment = Cdbs_core.Fragment
module Query_class = Cdbs_core.Query_class
module Workload = Cdbs_core.Workload
module Classification = Cdbs_core.Classification
module Request = Cdbs_cluster.Request

type kind = Read | Update

type class_spec = {
  id : string;
  kind : kind;
  footprint : (string * string list) list;
  weight : float;
  request_mb : float;
}

let read id footprint ~weight ~request_mb =
  { id; kind = Read; footprint; weight; request_mb }

let update id footprint ~weight ~request_mb =
  { id; kind = Update; footprint; weight; request_mb }

let columns_of schema table = function
  | [] -> (
      match Schema.find_table schema table with
      | Some tbl -> Schema.column_names tbl
      | None -> [])
  | cols -> cols

let fragments_of ~schema ~size_of ~granularity spec =
  List.fold_left
    (fun acc (table, cols) ->
      match granularity with
      | `Table ->
          let kind = Fragment.Table table in
          Fragment.Set.add { Fragment.kind; size = size_of kind } acc
      | `Column ->
          List.fold_left
            (fun acc column ->
              let kind = Fragment.Column { table; column } in
              Fragment.Set.add { Fragment.kind; size = size_of kind } acc)
            acc
            (columns_of schema table cols))
    Fragment.Set.empty spec.footprint

let to_workload ~schema ~rows ~granularity specs =
  let size_of = Classification.default_sizes ~schema ~rows in
  let mk spec =
    {
      Query_class.id = spec.id;
      kind = (match spec.kind with Read -> Query_class.Read | Update -> Query_class.Update);
      fragments = fragments_of ~schema ~size_of ~granularity spec;
      weight = spec.weight;
    }
  in
  let reads, updates = List.partition (fun s -> s.kind = Read) specs in
  Workload.normalize
    (Workload.make ~reads:(List.map mk reads) ~updates:(List.map mk updates))

let class_counts ~n specs =
  let raw =
    List.map
      (fun s ->
        let mb = max 1e-9 s.request_mb in
        (s, s.weight /. mb))
      specs
  in
  let total = List.fold_left (fun acc (_, r) -> acc +. r) 0. raw in
  if total <= 0. then List.map (fun (s, _) -> (s.id, 0)) raw
  else begin
    (* Largest-remainder apportionment of n requests. *)
    let quotas =
      List.map (fun (s, r) -> (s, r /. total *. float_of_int n)) raw
    in
    let floors = List.map (fun (s, q) -> (s, int_of_float (floor q), q -. floor q)) quotas in
    let used = List.fold_left (fun acc (_, f, _) -> acc + f) 0 floors in
    let remaining = n - used in
    let by_remainder =
      List.stable_sort (fun (_, _, ra) (_, _, rb) -> Stdlib.compare rb ra) floors
    in
    let with_extra =
      List.mapi
        (fun i (s, f, _) -> (s.id, if i < remaining then f + 1 else f))
        by_remainder
    in
    (* Restore the spec order. *)
    List.map
      (fun (s, _) ->
        (s.id, Option.value ~default:0 (List.assoc_opt s.id with_extra)))
      raw
  end

(* The shuffled stream behind [requests]. *)
let shuffled ~rng ~n specs =
  let counts = class_counts ~n specs in
  (* Requests are immutable, so a spec's copies share one record. *)
  let arr =
    Array.concat
      (List.map
         (fun spec ->
           let count =
             Option.value ~default:0 (List.assoc_opt spec.id counts)
           in
           Array.make count
             (match spec.kind with
             | Read -> Request.read ~cost_mb:spec.request_mb spec.id
             | Update -> Request.update ~cost_mb:spec.request_mb spec.id))
         specs)
  in
  Cdbs_util.Rng.shuffle rng arr;
  arr

let requests ~rng ~n specs = Array.to_list (shuffled ~rng ~n specs)

let uniform_requests ~rng ~n ~t0 ~span specs =
  let drawn = shuffled ~rng ~n specs in
  let arrival =
    Float.Array.init (Array.length drawn) (fun _ ->
        t0 +. Cdbs_util.Rng.float rng span)
  in
  Array.fold_right
    (fun i stream ->
      { (drawn.(i) : Request.t) with arrival = Float.Array.get arrival i }
      :: stream)
    (Cdbs_util.Stats.stable_order arrival)
    []
