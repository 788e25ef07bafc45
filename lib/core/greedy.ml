let via_dense ~context place (workload : Workload.t)
    (backend_list : Backend.t list) : Allocation.t =
  let alloc = Allocation.create workload backend_list in
  if Allocation.num_backends alloc = 0 then
    invalid_arg (context ^ ": no backends");
  let alloc =
    Allocation.with_state alloc (place (Allocation.state alloc).Dense.inst)
  in
  Invariants.check_allocation ~context alloc;
  alloc

let allocate = via_dense ~context:"Greedy.allocate" Dense.greedy

let sort_key workload c ~rest_weight =
  let alloc = Allocation.create workload [] in
  let size, updates =
    Dense.class_closure (Allocation.state alloc).Dense.inst
      (Allocation.class_index alloc c)
      ignore
  in
  (rest_weight +. updates) *. size
