let shiftable_weight alloc b =
  let workload = Allocation.workload alloc in
  let n = Allocation.num_backends alloc in
  List.fold_left
    (fun acc c ->
      let w = Allocation.get_assign alloc b c in
      if w <= 0. then acc
      else
        let rec elsewhere b' =
          b' < n && ((b' <> b && Allocation.holds alloc b' c) || elsewhere (b' + 1))
        in
        if elsewhere 0 then acc +. w else acc)
    0. workload.Workload.reads

let is_robust alloc ~tolerance =
  let n = Allocation.num_backends alloc in
  let backends = Allocation.backends alloc in
  let s = Allocation.scale alloc in
  let rec all b =
    b >= n
    ||
    let utilization =
      Allocation.assigned_load alloc b /. backends.(b).Backend.load
    in
    (* Only backends at the current maximum constrain robustness. *)
    ((utilization < s -. 1e-9) || shiftable_weight alloc b >= tolerance)
    && all (b + 1)
  in
  all 0

let harden alloc ~tolerance =
  let workload = Allocation.workload alloc in
  let n = Allocation.num_backends alloc in
  let backends = Allocation.backends alloc in
  let s = Allocation.scale alloc in
  for b = 0 to n - 1 do
    let utilization =
      Allocation.assigned_load alloc b /. backends.(b).Backend.load
    in
    if utilization >= s -. 1e-9 then begin
      (* Replicate this backend's read classes (smallest data first) onto
         other backends until enough weight could be shifted away. *)
      let local =
        List.filter
          (fun c -> Allocation.get_assign alloc b c > 0.)
          workload.Workload.reads
        |> List.sort (fun a c -> Stdlib.compare (Query_class.size a) (Query_class.size c))
      in
      List.iter
        (fun c ->
          if shiftable_weight alloc b < tolerance then begin
            (* Pick the least-utilized backend not holding the class. *)
            let best = ref (-1) and best_u = ref infinity in
            for b' = 0 to n - 1 do
              if b' <> b && not (Allocation.holds alloc b' c) then begin
                let u =
                  Allocation.assigned_load alloc b'
                  /. backends.(b').Backend.load
                in
                if u < !best_u then begin
                  best := b';
                  best_u := u
                end
              end
            done;
            if !best >= 0 then begin
              Allocation.add_fragments alloc !best c.Query_class.fragments;
              Allocation.ensure_update_closure alloc
            end
          end)
        local
    end
  done
