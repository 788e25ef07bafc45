type t = {
  name : string;
  load : float;
}

let homogeneous n =
  if n <= 0 then invalid_arg "Backend.homogeneous: need at least one backend";
  List.init n (fun i ->
      { name = Printf.sprintf "B%d" (i + 1); load = 1. /. float_of_int n })

let heterogeneous perfs =
  if perfs = [] then invalid_arg "Backend.heterogeneous: empty list";
  if List.exists (fun p -> p <= 0.) perfs then
    invalid_arg "Backend.heterogeneous: non-positive performance";
  let total = List.fold_left ( +. ) 0. perfs in
  List.mapi
    (fun i p ->
      { name = Printf.sprintf "B%d" (i + 1); load = p /. total })
    perfs
