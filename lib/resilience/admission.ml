type policy = { max_depth : int; max_pending : float }

let default = { max_depth = 64; max_pending = 1. }

let make ?(max_depth = default.max_depth) ?(max_pending = default.max_pending)
    () =
  if max_depth < 1 then invalid_arg "Admission.make: max_depth < 1";
  if max_pending <= 0. then invalid_arg "Admission.make: max_pending <= 0";
  { max_depth; max_pending }

type decision = Admit | Shed

let decide p ~depth ~pending ~is_update =
  if is_update then Admit
  else if depth >= p.max_depth || pending > p.max_pending then Shed
  else Admit
