open Cdbs_core
module Planner = Cdbs_migration.Planner
module Schedule = Cdbs_migration.Schedule
module Delta = Cdbs_migration.Delta
module D = Diagnostic

let move_subject (m : Planner.move) =
  Fmt.str "move %s->B%d" (Fragment.name m.Planner.fragment) m.Planner.dest

let drop_subject (d : Planner.drop) =
  Fmt.str "drop %s@B%d" (Fragment.name d.Planner.victim) d.Planner.at_backend

(* ------------------------------------------------------------------ *)
(* Plan structure                                                      *)
(* ------------------------------------------------------------------ *)

let check_moves (plan : Planner.plan) =
  let n = plan.Planner.num_physical in
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun (m : Planner.move) ->
      let subject = move_subject m in
      let range_errs =
        (if m.Planner.dest < 0 || m.Planner.dest >= n then
           [
             D.error ~code:"MIG001" ~subject
               ~data:[ ("dest", D.Int m.Planner.dest); ("nodes", D.Int n) ]
               "destination B%d outside the %d live physical nodes"
               m.Planner.dest n;
           ]
         else [])
        @
        match m.Planner.source with
        | Some u when u < 0 || u >= n ->
            [
              D.error ~code:"MIG001" ~subject
                ~data:[ ("source", D.Int u); ("nodes", D.Int n) ]
                "source B%d outside the %d live physical nodes" u n;
            ]
        | _ -> []
      in
      if range_errs <> [] then range_errs
      else begin
        let errs = ref [] in
        (match m.Planner.source with
        | Some u
          when not
                 (Fragment.Set.mem m.Planner.fragment plan.Planner.old_sets.(u))
          ->
            errs :=
              D.error ~code:"MIG002" ~subject
                ~data:[ ("source", D.Int u) ]
                "source B%d does not hold %s when the migration starts" u
                (Fragment.name m.Planner.fragment)
              :: !errs
        | _ -> ());
        if Fragment.Set.mem m.Planner.fragment plan.Planner.old_sets.(m.Planner.dest)
        then
          errs :=
            D.warning ~code:"MIG003" ~subject
              "destination already holds the fragment (redundant copy)"
            :: !errs;
        let key = (m.Planner.dest, m.Planner.fragment) in
        if Hashtbl.mem seen key then
          errs :=
            D.warning ~code:"MIG010" ~subject
              "fragment copied twice to the same backend"
            :: !errs
        else Hashtbl.replace seen key ();
        !errs
      end)
    plan.Planner.moves

let check_drops (plan : Planner.plan) =
  let n = plan.Planner.num_physical in
  List.concat_map
    (fun (d : Planner.drop) ->
      let subject = drop_subject d in
      if d.Planner.at_backend < 0 || d.Planner.at_backend >= n then
        [
          D.error ~code:"MIG001" ~subject
            ~data:[ ("backend", D.Int d.Planner.at_backend); ("nodes", D.Int n) ]
            "dropping backend B%d outside the %d live physical nodes"
            d.Planner.at_backend n;
        ]
      else begin
        let errs = ref [] in
        if
          not
            (Fragment.Set.mem d.Planner.victim
               plan.Planner.old_sets.(d.Planner.at_backend))
        then
          errs :=
            D.error ~code:"MIG004" ~subject
              "backend never stored the fragment it is told to drop"
            :: !errs;
        if
          List.exists
            (fun (m : Planner.move) ->
              m.Planner.dest = d.Planner.at_backend
              && Fragment.equal m.Planner.fragment d.Planner.victim)
            plan.Planner.moves
        then
          errs :=
            D.error ~code:"MIG005" ~subject
              "fragment is both copied to and dropped at the same backend"
            :: !errs;
        !errs
      end)
    plan.Planner.drops

(* (old ∪ copies) \ drops must equal the declared target, per backend. *)
let check_placement_equation (plan : Planner.plan) =
  let n = plan.Planner.num_physical in
  let reached = Array.copy plan.Planner.old_sets in
  List.iter
    (fun (m : Planner.move) ->
      if m.Planner.dest >= 0 && m.Planner.dest < n then
        reached.(m.Planner.dest) <-
          Fragment.Set.add m.Planner.fragment reached.(m.Planner.dest))
    plan.Planner.moves;
  List.iter
    (fun (d : Planner.drop) ->
      if d.Planner.at_backend >= 0 && d.Planner.at_backend < n then
        reached.(d.Planner.at_backend) <-
          Fragment.Set.remove d.Planner.victim reached.(d.Planner.at_backend))
    plan.Planner.drops;
  let out = ref [] in
  for p = 0 to n - 1 do
    let target = plan.Planner.target_sets.(p) in
    let missing = Fragment.Set.diff target reached.(p) in
    let extra = Fragment.Set.diff reached.(p) target in
    if not (Fragment.Set.is_empty missing && Fragment.Set.is_empty extra) then begin
      let names s =
        String.concat ", " (List.map Fragment.name (Fragment.Set.elements s))
      in
      out :=
        D.error ~code:"MIG006" ~subject:(Fmt.str "backend B%d" p)
          ~data:
            [
              ("missing", D.Str (names missing));
              ("extra", D.Str (names extra));
            ]
          "executing the plan does not reach the target placement \
           (missing: {%s}; extra: {%s})"
          (names missing) (names extra)
        :: !out
    end
  done;
  !out

let check_bookkeeping (plan : Planner.plan) =
  let sum =
    List.fold_left (fun acc (m : Planner.move) -> acc +. m.Planner.size) 0.
      plan.Planner.moves
  in
  if abs_float (sum -. plan.Planner.copy_mb) > Eps.weight then
    [
      D.error ~code:"MIG007" ~subject:"plan"
        ~data:[ ("copy_mb", D.Num plan.Planner.copy_mb); ("sum", D.Num sum) ]
        "declared copy volume %.3f MB differs from the moves' total %.3f MB"
        plan.Planner.copy_mb sum;
    ]
  else []

(* Replay the step sequence (expand move-by-move, contract at the barrier)
   and track every class's live replica count. *)
let check_replica_floors ~workload (plan : Planner.plan) =
  let n = plan.Planner.num_physical in
  let in_range i = i >= 0 && i < n in
  let classes = Workload.all_classes workload in
  let replicas live (c : Query_class.t) =
    Array.fold_left
      (fun acc set ->
        if Fragment.Set.subset c.Query_class.fragments set then acc + 1
        else acc)
      0 live
  in
  let live = Array.copy plan.Planner.old_sets in
  let initial = List.map (fun c -> replicas live c) classes in
  let mins = Array.of_list initial in
  let observe () =
    List.iteri
      (fun i c ->
        let r = replicas live c in
        if r < mins.(i) then mins.(i) <- r)
      classes
  in
  List.iter
    (fun (m : Planner.move) ->
      if in_range m.Planner.dest then begin
        live.(m.Planner.dest) <-
          Fragment.Set.add m.Planner.fragment live.(m.Planner.dest);
        observe ()
      end)
    plan.Planner.moves;
  List.iter
    (fun (d : Planner.drop) ->
      if in_range d.Planner.at_backend then
        live.(d.Planner.at_backend) <-
          Fragment.Set.remove d.Planner.victim live.(d.Planner.at_backend))
    plan.Planner.drops;
  observe ();
  List.concat
    (List.mapi
       (fun i (c : Query_class.t) ->
         let init = List.nth initial i in
         let final = replicas plan.Planner.target_sets c in
         if mins.(i) < 1 && init >= 1 && final >= 1 then
           [
             D.error ~code:"MIG009" ~subject:("class " ^ c.Query_class.id)
               ~data:[ ("initial", D.Int init); ("final", D.Int final) ]
               "loses its last live replica mid-move although it is served \
                before and after";
           ]
         else [])
       classes)

let check_plan ~workload plan =
  check_moves plan
  @ check_drops plan
  @ check_placement_equation plan
  @ check_bookkeeping plan
  @ check_replica_floors ~workload plan

(* ------------------------------------------------------------------ *)
(* Schedule                                                            *)
(* ------------------------------------------------------------------ *)

let timed_subject (tm : Schedule.timed_move) = move_subject tm.Schedule.move

let check_schedule (sched : Schedule.t) =
  let plan = sched.Schedule.plan in
  let bw = sched.Schedule.bandwidth in
  let master = plan.Planner.num_physical in
  let streams_of (m : Planner.move) =
    [
      m.Planner.dest;
      (match m.Planner.source with Some u -> u | None -> master);
    ]
  in
  let bw_errs =
    if bw <= 0. then
      [
        D.error ~code:"SCH001" ~subject:"schedule"
          ~data:[ ("bandwidth", D.Num bw) ]
          "non-positive bandwidth %.3f MB/s" bw;
      ]
    else []
  in
  let per_move =
    List.concat_map
      (fun (tm : Schedule.timed_move) ->
        let subject = timed_subject tm in
        let dur = tm.Schedule.finish -. tm.Schedule.start in
        let need =
          if bw > 0. then tm.Schedule.move.Planner.size /. bw else 0.
        in
        (if bw > 0. && dur < need -. Eps.weight then
           [
             D.error ~code:"SCH002" ~subject
               ~data:
                 [
                   ("duration_s", D.Num dur); ("required_s", D.Num need);
                   ("bandwidth", D.Num bw);
                 ]
               "ships %.1f MB in %.3f s — faster than the %.1f MB/s \
                throttle allows (%.3f s)"
               tm.Schedule.move.Planner.size dur bw need;
           ]
         else [])
        @
        if tm.Schedule.start < sched.Schedule.start -. Eps.weight then
          [
            D.error ~code:"SCH006" ~subject
              ~data:
                [
                  ("start", D.Num tm.Schedule.start);
                  ("schedule_start", D.Num sched.Schedule.start);
                ]
              "starts at %.3f s, before the schedule's start %.3f s"
              tm.Schedule.start sched.Schedule.start;
          ]
        else [])
      sched.Schedule.moves
  in
  (* Stream serialization: no two copies may occupy the same stream (a
     physical node, or the master pseudo-stream) at once. *)
  let overlap_errs =
    let moves = Array.of_list sched.Schedule.moves in
    let out = ref [] in
    Array.iteri
      (fun i (a : Schedule.timed_move) ->
        for j = i + 1 to Array.length moves - 1 do
          let b = moves.(j) in
          let shared =
            List.exists
              (fun s -> List.mem s (streams_of b.Schedule.move))
              (streams_of a.Schedule.move)
          in
          if
            shared
            && a.Schedule.start < b.Schedule.finish -. Eps.weight
            && b.Schedule.start < a.Schedule.finish -. Eps.weight
          then
            out :=
              D.error ~code:"SCH003" ~subject:(timed_subject a)
                ~data:[ ("other", D.Str (timed_subject b)) ]
                "overlaps %s on a shared copy stream" (timed_subject b)
              :: !out
        done)
      moves;
    !out
  in
  let barrier_errs =
    let last_finish =
      List.fold_left
        (fun acc (tm : Schedule.timed_move) -> max acc tm.Schedule.finish)
        sched.Schedule.start sched.Schedule.moves
    in
    if sched.Schedule.drops_at < last_finish -. Eps.weight then
      [
        D.error ~code:"SCH004" ~subject:"schedule"
          ~data:
            [
              ("drops_at", D.Num sched.Schedule.drops_at);
              ("last_copy_done", D.Num last_finish);
            ]
          "drop barrier at %.3f s fires before the last copy ends at %.3f s \
           (expand-then-contract broken)"
          sched.Schedule.drops_at last_finish;
      ]
    else []
  in
  (* The timed moves must be exactly the plan's moves. *)
  let key (m : Planner.move) = (m.Planner.dest, m.Planner.fragment) in
  let consistency_errs =
    let planned = List.map key plan.Planner.moves in
    let timed =
      List.map (fun (tm : Schedule.timed_move) -> key tm.Schedule.move)
        sched.Schedule.moves
    in
    let missing = List.filter (fun k -> not (List.mem k timed)) planned in
    let extra = List.filter (fun k -> not (List.mem k planned)) timed in
    List.map
      (fun (dest, f) ->
        D.error ~code:"SCH005"
          ~subject:(Fmt.str "move %s->B%d" (Fragment.name f) dest)
          "planned copy missing from the schedule")
      missing
    @ List.map
        (fun (dest, f) ->
          D.error ~code:"SCH005"
            ~subject:(Fmt.str "move %s->B%d" (Fragment.name f) dest)
            "scheduled copy not present in the plan")
        extra
  in
  bw_errs @ per_move @ overlap_errs @ barrier_errs @ consistency_errs

(* ------------------------------------------------------------------ *)
(* Delta journal                                                       *)
(* ------------------------------------------------------------------ *)

let raise_errors ~context = function
  | [] -> ()
  | errs ->
      raise
        (Invariants.Violation
           (context ^ ": "
           ^ String.concat "; "
               (List.map (fun d -> Fmt.str "%a" Diagnostic.pp d) errs)))

let check_plan_exn ~context ~workload plan =
  raise_errors ~context (Diagnostic.errors (check_plan ~workload plan))

let check_schedule_exn ~context sched =
  raise_errors ~context (Diagnostic.errors (check_schedule sched))
