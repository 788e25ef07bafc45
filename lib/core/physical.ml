module Hungarian = Cdbs_lp.Hungarian

type plan = {
  mapping : int array;
  transfer : float;
  per_backend : float array;
}

let transfer_cost ~old_fragments new_fragments =
  Fragment.set_size (Fragment.Set.diff new_fragments old_fragments)

let plan_of_sets ~old_sets ~new_sets =
  let nv = Array.length new_sets and nu = Array.length old_sets in
  let n = max nv nu in
  (* Pad with empty virtual backends: shipping to a fresh node costs the
     full fragment size; decommissioned nodes receive nothing. *)
  let cost =
    Array.init n (fun v ->
        Array.init n (fun u ->
            let nf =
              if v < nv then new_sets.(v) else Fragment.Set.empty
            in
            let of_ = if u < nu then old_sets.(u) else Fragment.Set.empty in
            transfer_cost ~old_fragments:of_ nf))
  in
  let assignment, _ = Hungarian.solve cost in
  let mapping = Array.make nv (-1) in
  let per_backend = Array.make nv 0. in
  for v = 0 to nv - 1 do
    let u = assignment.(v) in
    mapping.(v) <- (if u < nu then u else -1);
    per_backend.(v) <- cost.(v).(u)
  done;
  {
    mapping;
    transfer = Array.fold_left ( +. ) 0. per_backend;
    per_backend;
  }

let plan_scaled ~old_fragments new_alloc =
  let new_sets =
    Array.init
      (Allocation.num_backends new_alloc)
      (Allocation.fragments_of new_alloc)
  in
  plan_of_sets ~old_sets:(Array.of_list old_fragments) ~new_sets

(* Stage rates in MB/s. *)
let prepare_rate = 100.
let transfer_rate = 35.
let load_rate = 25.

let duration p ~fragmentation =
  (* The controller ships from a single source, so the network stage is
     serial in the total volume; bulk loading runs in parallel on the
     backends and costs as much as the slowest one. *)
  let prepare = fragmentation /. prepare_rate in
  let ship = p.transfer /. transfer_rate in
  let slowest_load =
    Array.fold_left (fun acc mb -> max acc (mb /. load_rate)) 0. p.per_backend
  in
  prepare +. ship +. slowest_load
