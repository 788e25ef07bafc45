type timed_move = {
  move : Planner.move;
  start : float;
  finish : float;
}

type t = {
  plan : Planner.plan;
  bandwidth : float;
  start : float;
  moves : timed_move list;
  copy_done : float;
  drops_at : float;
}

let make ?(start = 0.) ~bandwidth (plan : Planner.plan) =
  if bandwidth <= 0. then invalid_arg "Schedule.make: bandwidth <= 0";
  (* One stream per physical node plus one for the master source. *)
  let free = Array.make (plan.Planner.num_physical + 1) start in
  let master = plan.Planner.num_physical in
  let copy_done = ref start in
  let moves =
    List.map
      (fun (m : Planner.move) ->
        let src = match m.Planner.source with Some u -> u | None -> master in
        let st = max free.(m.Planner.dest) free.(src) in
        let fin = st +. (m.Planner.size /. bandwidth) in
        free.(m.Planner.dest) <- fin;
        free.(src) <- fin;
        if fin > !copy_done then copy_done := fin;
        { move = m; start = st; finish = fin })
      plan.Planner.moves
  in
  let moves =
    List.stable_sort
      (fun (a : timed_move) (b : timed_move) -> Float.compare a.start b.start)
      moves
  in
  { plan; bandwidth; start; moves; copy_done = !copy_done; drops_at = !copy_done }

let copying t ~backend ~at =
  List.exists
    (fun (tm : timed_move) ->
      tm.start <= at && at < tm.finish
      && (tm.move.Planner.dest = backend
         || tm.move.Planner.source = Some backend))
    t.moves

let pp ppf t =
  Fmt.pf ppf
    "migration schedule: %d copies @@ %.1f MB/s, copy phase %.2fs-%.2fs, \
     drops @@ %.2fs@."
    (List.length t.moves) t.bandwidth t.start t.copy_done t.drops_at;
  List.iter
    (fun (tm : timed_move) ->
      Fmt.pf ppf "  [%8.2f, %8.2f) %a@." tm.start tm.finish Planner.pp_move
        tm.move)
    t.moves
