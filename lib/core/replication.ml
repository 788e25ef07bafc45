(* For each workload fragment, on how many backends a copy lives. *)
let replica_counts alloc =
  let fragments =
    Fragment.Set.elements (Workload.fragments (Allocation.workload alloc))
  in
  let held =
    Array.init (Allocation.num_backends alloc) (Allocation.fragments_of alloc)
  in
  List.map
    (fun f ->
      let count = ref 0 in
      Array.iter (fun s -> if Fragment.Set.mem f s then incr count) held;
      (f, !count))
    fragments

let degree alloc =
  let base =
    Fragment.set_size (Workload.fragments (Allocation.workload alloc))
  in
  if base <= 0. then 0. else Allocation.total_stored alloc /. base

let histogram alloc ~max_replicas =
  if max_replicas <= 0 then invalid_arg "Replication.histogram";
  let bins = Array.make max_replicas 0 in
  List.iter
    (fun (_, count) ->
      if count >= 1 then begin
        let idx = min (max_replicas - 1) (count - 1) in
        bins.(idx) <- bins.(idx) + 1
      end)
    (replica_counts alloc);
  bins

let min_replicas alloc =
  List.fold_left
    (fun acc (_, count) -> min acc count)
    max_int (replica_counts alloc)
  |> fun m -> if m = max_int then 0 else m
