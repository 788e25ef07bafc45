(* Eq. 1: [1 / (parallel/nodes + serial)] with [parallel = 1 - serial].
   For the fully replicated TPC-App setup ([serial = 0.25], 10 nodes) this
   is the paper's 3.07 (Eq. 29). *)
let amdahl ~nodes ~serial =
  if nodes <= 0 then invalid_arg "Speedup.amdahl: nodes must be positive";
  let parallel = 1. -. serial in
  1. /. ((parallel /. float_of_int nodes) +. serial)

let full_replication ~nodes ~update_weight =
  amdahl ~nodes ~serial:update_weight

let max_speedup_bound workload ~nodes =
  let worst =
    List.fold_left
      (fun acc c -> max acc (Workload.update_weight_of workload c))
      0.
      (Workload.all_classes workload)
  in
  if worst <= 0. then float_of_int nodes
  else min (float_of_int nodes) (1. /. worst)

let of_scale ~nodes ~scale = float_of_int nodes /. scale
