(* The instance numbers fragments and classes as [alloc] does, so the
   result copies back by position. *)
let write_back ~context alloc (t : Dense.t) =
  let nc = Array.length (Allocation.classes alloc) in
  for b = 0 to Allocation.num_backends alloc - 1 do
    Dense.Bits.iter (Allocation.add_fragment_at alloc b) t.Dense.held.(b)
  done;
  for k = 0 to nc - 1 do
    Dense.iter_shares t k (fun b w -> Allocation.set_assign_at alloc b k w)
  done;
  Invariants.check_allocation ~context alloc;
  alloc

let via_dense ~context place (workload : Workload.t)
    (backend_list : Backend.t list) : Allocation.t =
  let alloc = Allocation.create workload backend_list in
  if Allocation.num_backends alloc = 0 then
    invalid_arg (context ^ ": no backends");
  write_back ~context alloc (place (Dense.of_allocation alloc).Dense.inst)

let allocate = via_dense ~context:"Greedy.allocate" Dense.greedy

let sort_key workload c ~rest_weight =
  let alloc = Allocation.create workload [] in
  let size, updates =
    Dense.class_closure (Dense.of_allocation alloc).Dense.inst
      (Allocation.class_index alloc c)
      ignore
  in
  (rest_weight +. updates) *. size
