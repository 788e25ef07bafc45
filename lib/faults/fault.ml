type event =
  | Crash of int
  | Recover of int
  | Slowdown of { backend : int; factor : float; duration : float }
  | Partition of { backends : int list; duration : float }
  | ZoneOutage of { zone : int; duration : float }
  | Workload_shift of { mix : (string * float) list }

type timed = { at : float; event : event }
type schedule = timed list

let crash ~at b = { at; event = Crash b }
let recover ~at b = { at; event = Recover b }

let slowdown ~at ~backend ~factor ~duration =
  if factor < 1. then invalid_arg "Fault.slowdown: factor < 1";
  if duration <= 0. then invalid_arg "Fault.slowdown: duration <= 0";
  { at; event = Slowdown { backend; factor; duration } }

let partition ~at ~backends ~duration =
  if backends = [] then invalid_arg "Fault.partition: no backends";
  if duration <= 0. then invalid_arg "Fault.partition: duration <= 0";
  { at; event = Partition { backends = List.sort_uniq compare backends; duration } }

let zone_outage ~at ~zone ~duration =
  if zone < 0 then invalid_arg "Fault.zone_outage: zone < 0";
  if duration <= 0. then invalid_arg "Fault.zone_outage: duration <= 0";
  { at; event = ZoneOutage { zone; duration } }

let check_mix ~what mix =
  if mix = [] then invalid_arg (what ^ ": empty mix");
  List.iter
    (fun (id, w) ->
      if not (Float.is_finite w) || w < 0. then
        invalid_arg
          (Printf.sprintf "%s: weight of %S must be finite and >= 0" what id))
    mix;
  if List.fold_left (fun acc (_, w) -> acc +. w) 0. mix <= 0. then
    invalid_arg (what ^ ": mix weights sum to zero")

let workload_shift ~at ~mix =
  check_mix ~what:"Fault.workload_shift" mix;
  { at; event = Workload_shift { mix } }

let sort schedule =
  List.stable_sort (fun a b -> Float.compare a.at b.at) schedule

let validate ?zone_of ~num_backends schedule =
  let n = max 1 num_backends in
  let up = Array.make n true in
  let slow_until = Array.make n neg_infinity in
  (* A backend inside an active partition (or zone-outage) window is
     unreachable: further events targeting it during the window would race
     the heal in ways the simulator's single partition-state per backend
     cannot represent, so they are rejected outright. *)
  let cut_until = Array.make n neg_infinity in
  let members_of_zone z =
    match zone_of with
    | None -> None
    | Some zs ->
        let acc = ref [] in
        Array.iteri (fun b z' -> if z' = z then acc := b :: !acc) zs;
        Some (List.rev !acc)
  in
  let check_backend at b =
    if b < 0 || b >= num_backends then
      Error
        (Printf.sprintf "event at %g targets backend %d of %d" at b
           num_backends)
    else Ok ()
  in
  let check_reachable what at b =
    if at < cut_until.(b) then
      Error
        (Printf.sprintf
           "%s at %g: backend %d is partitioned until %g (overlapping \
            windows)"
           what at b cut_until.(b))
    else Ok ()
  in
  let ( let* ) = Result.bind in
  let rec each f = function
    | [] -> Ok ()
    | x :: rest ->
        let* () = f x in
        each f rest
  in
  let cut what at ~duration bs =
    let* () =
      if duration <= 0. then
        Error (Printf.sprintf "%s at %g: duration %g <= 0" what at duration)
      else Ok ()
    in
    let* () =
      each
        (fun b ->
          let* () = check_backend at b in
          let* () = check_reachable what at b in
          if not up.(b) then
            Error
              (Printf.sprintf "%s at %g: backend %d is already down" what at b)
          else Ok ())
        bs
    in
    List.iter (fun b -> cut_until.(b) <- at +. duration) bs;
    Ok ()
  in
  let rec go = function
    | [] -> Ok ()
    | { at; event } :: rest -> (
        if not (at >= 0.) then
          Error
            (Printf.sprintf "event at %g: times must be non-negative" at)
        else
          match event with
          | Crash b ->
              let* () = check_backend at b in
              let* () = check_reachable "crash" at b in
              if not up.(b) then
                Error (Printf.sprintf "crash at %g: backend %d already down"
                         at b)
              else begin up.(b) <- false; go rest end
          | Recover b ->
              let* () = check_backend at b in
              let* () = check_reachable "recover" at b in
              if up.(b) then
                Error (Printf.sprintf "recover at %g: backend %d is not down"
                         at b)
              else begin up.(b) <- true; go rest end
          | Slowdown { backend = b; factor; duration } ->
              let* () = check_backend at b in
              let* () = check_reachable "slowdown" at b in
              if factor < 1. then
                Error (Printf.sprintf "slowdown at %g: factor %g < 1" at factor)
              else if duration <= 0. then
                Error (Printf.sprintf "slowdown at %g: duration %g <= 0" at
                         duration)
              else if at < slow_until.(b) then
                Error
                  (Printf.sprintf
                     "slowdown at %g: backend %d already slowed until %g \
                      (overlapping windows)"
                     at b slow_until.(b))
              else begin slow_until.(b) <- at +. duration; go rest end
          | Partition { backends = bs; duration } ->
              let* () =
                if bs = [] then
                  Error (Printf.sprintf "partition at %g: no backends" at)
                else Ok ()
              in
              let* () = cut "partition" at ~duration bs in
              go rest
          | ZoneOutage { zone; duration } -> (
              if zone < 0 then
                Error (Printf.sprintf "zone outage at %g: zone %d < 0" at zone)
              else
                match members_of_zone zone with
                | None ->
                    Error
                      (Printf.sprintf
                         "zone outage at %g: schedule has zone faults but no \
                          topology was supplied (pass ~zone_of)"
                         at)
                | Some [] ->
                    Error
                      (Printf.sprintf "zone outage at %g: zone %d is empty" at
                         zone)
                | Some bs ->
                    let* () = cut "zone outage" at ~duration bs in
                    go rest)
          | Workload_shift { mix } ->
              if mix = [] then
                Error (Printf.sprintf "workload shift at %g: empty mix" at)
              else if
                List.exists
                  (fun (_, w) -> (not (Float.is_finite w)) || w < 0.)
                  mix
              then
                Error
                  (Printf.sprintf
                     "workload shift at %g: weights must be finite and >= 0"
                     at)
              else if
                List.fold_left (fun acc (_, w) -> acc +. w) 0. mix <= 0.
              then
                Error
                  (Printf.sprintf
                     "workload shift at %g: mix weights sum to zero" at)
              else go rest)
  in
  go (sort schedule)

let pp_event ppf = function
  | Crash b -> Fmt.pf ppf "crash B%d" (b + 1)
  | Recover b -> Fmt.pf ppf "recover B%d" (b + 1)
  | Slowdown { backend; factor; duration } ->
      Fmt.pf ppf "slowdown B%d x%.2f for %.1fs" (backend + 1) factor duration
  | Partition { backends; duration } ->
      Fmt.pf ppf "partition {%a} for %.1fs"
        Fmt.(list ~sep:(any ",") (fmt "B%d"))
        (List.map (fun b -> b + 1) backends)
        duration
  | ZoneOutage { zone; duration } ->
      Fmt.pf ppf "zone outage z%d for %.1fs" zone duration
  | Workload_shift { mix } ->
      Fmt.pf ppf "workload shift {%a}"
        Fmt.(list ~sep:(any ",") (pair ~sep:(any ":") string (fmt "%.2f")))
        mix

let pp_timed ppf { at; event } = Fmt.pf ppf "%8.2fs %a" at pp_event event
