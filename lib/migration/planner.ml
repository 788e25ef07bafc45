open Cdbs_core

type move = {
  fragment : Fragment.t;
  dest : int;
  source : int option;
  size : float;
}

type drop = {
  victim : Fragment.t;
  at_backend : int;
}

type plan = {
  num_physical : int;
  old_sets : Fragment.Set.t array;
  target_sets : Fragment.Set.t array;
  moves : move list;
  drops : drop list;
  copy_mb : float;
  full_rebuild_mb : float;
}

let make ~old_fragments target =
  let nv = Allocation.num_backends target in
  let nu = List.length old_fragments in
  let old_arr = Array.of_list old_fragments in
  let physical = Physical.plan_scaled ~old_fragments target in
  let num_physical = max nu nv in
  (* Logical target backend v runs on the matched old node, or on the next
     fresh physical index when matched to a virtual (empty) old node. *)
  let next_fresh = ref nu in
  let dest_of_new =
    Array.init nv (fun v ->
        let u = physical.Physical.mapping.(v) in
        if u >= 0 then u
        else begin
          let p = !next_fresh in
          incr next_fresh;
          p
        end)
  in
  let old_sets =
    Array.init num_physical (fun p ->
        if p < nu then old_arr.(p) else Fragment.Set.empty)
  in
  let target_sets = Array.make num_physical Fragment.Set.empty in
  Array.iteri
    (fun v p -> target_sets.(p) <- Allocation.fragments_of target v)
    dest_of_new;
  (* A copy for every fragment a physical node needs but does not hold;
     the source is any running node that already stores the fragment. *)
  let source_of f =
    let rec go p =
      if p >= nu then None
      else if Fragment.Set.mem f old_sets.(p) then Some p
      else go (p + 1)
    in
    go 0
  in
  let moves = ref [] in
  for p = 0 to num_physical - 1 do
    Fragment.Set.iter
      (fun f ->
        moves :=
          { fragment = f; dest = p; source = source_of f; size = f.Fragment.size }
          :: !moves)
      (Fragment.Set.diff target_sets.(p) old_sets.(p))
  done;
  let moves =
    List.sort
      (fun a b ->
        let c = Float.compare a.size b.size in
        if c <> 0 then c
        else
          let c = Fragment.compare a.fragment b.fragment in
          if c <> 0 then c else Int.compare a.dest b.dest)
      !moves
  in
  let drops = ref [] in
  for p = num_physical - 1 downto 0 do
    Fragment.Set.iter
      (fun f -> drops := { victim = f; at_backend = p } :: !drops)
      (Fragment.Set.diff old_sets.(p) target_sets.(p))
  done;
  let copy_mb = List.fold_left (fun acc m -> acc +. m.size) 0. moves in
  let full_rebuild_mb =
    Array.fold_left (fun acc s -> acc +. Fragment.set_size s) 0. target_sets
  in
  {
    num_physical;
    old_sets;
    target_sets;
    moves;
    drops = !drops;
    copy_mb;
    full_rebuild_mb;
  }

let is_noop p = p.moves = [] && p.drops = []

let pp_move ppf m =
  Fmt.pf ppf "%a -> B%d (%s, %.1f MB)" Fragment.pp m.fragment m.dest
    (match m.source with Some u -> Fmt.str "from B%d" u | None -> "from master")
    m.size

let pp ppf p =
  Fmt.pf ppf "migration plan: %d copies (%.1f MB, full rebuild %.1f MB), %d drops@."
    (List.length p.moves) p.copy_mb p.full_rebuild_mb (List.length p.drops);
  List.iter (fun m -> Fmt.pf ppf "  copy %a@." pp_move m) p.moves;
  List.iter
    (fun d -> Fmt.pf ppf "  drop %a @@ B%d@." Fragment.pp d.victim d.at_backend)
    p.drops
