type segment = {
  start_time : float;
  end_time : float;
  journal : Journal.t;
}

(* Per-statement cost shares of a list of entries. *)
let mix entries =
  let h = Hashtbl.create 16 in
  let total = ref 0. in
  List.iter
    (fun (e : Journal.entry) ->
      total := !total +. e.cost;
      Hashtbl.replace h e.sql
        (e.cost +. Option.value ~default:0. (Hashtbl.find_opt h e.sql)))
    entries;
  if !total <= 0. then h
  else begin
    Hashtbl.iter (fun k v -> Hashtbl.replace h k (v /. !total)) h;
    h
  end

(* Total-variation distance between two mixes (0..1). *)
let mix_distance a b =
  let keys = Hashtbl.create 16 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) a;
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) b;
  let d = ref 0. in
  Hashtbl.iter
    (fun k () ->
      let va = Option.value ~default:0. (Hashtbl.find_opt a k) in
      let vb = Option.value ~default:0. (Hashtbl.find_opt b k) in
      d := !d +. abs_float (va -. vb))
    keys;
  !d /. 2.

let segment_journal ~window ~threshold journal =
  let entries =
    List.sort
      (fun (a : Journal.entry) b -> Stdlib.compare a.at b.at)
      (Journal.entries journal)
  in
  match entries with
  | [] -> [ { start_time = 0.; end_time = 0.; journal = Journal.create () } ]
  | first :: _ ->
      let last = List.nth entries (List.length entries - 1) in
      let t0 = first.at and t1 = last.at in
      if t1 -. t0 <= window then
        [ { start_time = t0; end_time = t1 +. 1.; journal } ]
      else begin
        (* Compare adjacent windows at half-window steps; a boundary is
           placed where the mix jumps. *)
        let step = window /. 2. in
        let in_range lo hi =
          List.filter (fun (e : Journal.entry) -> e.at >= lo && e.at < hi) entries
        in
        let boundaries = ref [] in
        let t = ref (t0 +. window) in
        while !t < t1 do
          let before = mix (in_range (!t -. window) !t) in
          let after = mix (in_range !t (!t +. window)) in
          if mix_distance before after > threshold then begin
            (* Avoid boundary bursts: only keep if far from the previous. *)
            match !boundaries with
            | b :: _ when !t -. b < window -> ()
            | _ -> boundaries := !t :: !boundaries
          end;
          t := !t +. step
        done;
        let cuts = List.rev !boundaries in
        let edges = (t0 :: cuts) @ [ t1 +. 1. ] in
        let rec to_segments = function
          | lo :: (hi :: _ as rest) ->
              {
                start_time = lo;
                end_time = hi;
                journal = Journal.between journal ~lo ~hi;
              }
              :: to_segments rest
          | _ -> []
        in
        to_segments edges
      end

(* Distribute a class's weight over the backends holding its data,
   water-filling toward equal utilization. *)
let distribute alloc c holders =
  let backends = Allocation.backends alloc in
  let chunks = 50 in
  let chunk = c.Query_class.weight /. float_of_int chunks in
  for _ = 1 to chunks do
    let best = ref (-1) and best_u = ref infinity in
    List.iter
      (fun b ->
        let u =
          Allocation.assigned_load alloc b /. backends.(b).Backend.load
        in
        if u < !best_u then begin
          best := b;
          best_u := u
        end)
      holders;
    if !best >= 0 then
      Allocation.set_assign alloc !best c
        (Allocation.get_assign alloc !best c +. chunk)
  done

let reassign alloc =
  let workload = Allocation.workload alloc in
  let n = Allocation.num_backends alloc in
  (* Clear read assignments, keep the placement. *)
  List.iter
    (fun c ->
      for b = 0 to n - 1 do
        Allocation.set_assign alloc b c 0.
      done)
    workload.Workload.reads;
  Allocation.ensure_update_closure alloc;
  let classes =
    List.sort
      (fun a b -> Stdlib.compare b.Query_class.weight a.Query_class.weight)
      workload.Workload.reads
  in
  List.iter
    (fun c ->
      let holders =
        List.filter
          (fun b -> Allocation.holds alloc b c)
          (List.init n (fun b -> b))
      in
      let holders =
        if holders <> [] then holders
        else begin
          (* Should not happen for merged segment placements; fall back to
             installing the class on the least-utilized backend. *)
          let backends = Allocation.backends alloc in
          let best = ref 0 and best_u = ref infinity in
          for b = 0 to n - 1 do
            let u =
              Allocation.assigned_load alloc b /. backends.(b).Backend.load
            in
            if u < !best_u then begin
              best := b;
              best_u := u
            end
          done;
          Allocation.add_fragments alloc !best c.Query_class.fragments;
          Allocation.ensure_update_closure alloc;
          [ !best ]
        end
      in
      distribute alloc c holders)
    classes

let merge overall = function
  | [] -> invalid_arg "Segmented.merge: empty list"
  | first :: rest ->
      let merged =
        Allocation.create overall (Array.to_list (Allocation.backends first))
      in
      let n = Allocation.num_backends merged in
      for b = 0 to n - 1 do
        Allocation.add_fragments merged b (Allocation.fragments_of first b)
      done;
      List.iter
        (fun alloc ->
          if Allocation.num_backends alloc <> n then
            invalid_arg "Segmented.merge: backend count mismatch";
          (* Align the segment's backends with the merged allocation so the
             union adds as little data as possible. *)
          let plan =
            Physical.plan_scaled
              ~old_fragments:
                (List.init n (fun b -> Allocation.fragments_of merged b))
              alloc
          in
          Array.iteri
            (fun v u ->
              let target = if u >= 0 then u else v in
              Allocation.add_fragments merged target
                (Allocation.fragments_of alloc v))
            plan.Physical.mapping)
        rest;
      reassign merged;
      merged

let allocate_segmented ~classify ~allocate ~window ~threshold journal =
  let segments = segment_journal ~window ~threshold journal in
  let allocations =
    List.map (fun s -> allocate (classify s.journal)) segments
  in
  match allocations with
  | [ single ] -> (single, segments)
  | several -> (merge (classify journal) several, segments)
