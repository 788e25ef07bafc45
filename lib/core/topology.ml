type t = { zones : int; zone_of : int array }

let make zone_of =
  let n = Array.length zone_of in
  if n = 0 then invalid_arg "Topology.make: no backends";
  let max_zone = Array.fold_left max (-1) zone_of in
  Array.iter
    (fun z -> if z < 0 then invalid_arg "Topology.make: negative zone index")
    zone_of;
  let zones = max_zone + 1 in
  let seen = Array.make zones false in
  Array.iter (fun z -> seen.(z) <- true) zone_of;
  Array.iteri
    (fun z populated ->
      if not populated then
        invalid_arg (Printf.sprintf "Topology.make: zone %d has no backends" z))
    seen;
  { zones; zone_of = Array.copy zone_of }

let uniform ~zones n =
  if zones <= 0 then invalid_arg "Topology.uniform: zones <= 0";
  if n < zones then invalid_arg "Topology.uniform: fewer backends than zones";
  make (Array.init n (fun b -> b mod zones))

let zones t = t.zones
let num_backends t = Array.length t.zone_of

let zone_of t b =
  if b < 0 || b >= Array.length t.zone_of then
    invalid_arg
      (Printf.sprintf "Topology.zone_of: backend %d of %d" b
         (Array.length t.zone_of));
  t.zone_of.(b)

let backends_in t z =
  if z < 0 || z >= t.zones then
    invalid_arg (Printf.sprintf "Topology.backends_in: zone %d of %d" z t.zones);
  let acc = ref [] in
  for b = Array.length t.zone_of - 1 downto 0 do
    if t.zone_of.(b) = z then acc := b :: !acc
  done;
  !acc

let zones_spanned t backends =
  let seen = Array.make t.zones false in
  List.iter
    (fun b ->
      if b >= 0 && b < Array.length t.zone_of then seen.(t.zone_of.(b)) <- true)
    backends;
  Array.fold_left (fun acc s -> if s then acc + 1 else acc) 0 seen
