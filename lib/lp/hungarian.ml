(* Potentials formulation of the Kuhn–Munkres algorithm, O(n^3).
   Internally 1-indexed: index 0 of [way]/[p] is a virtual row/column used
   to bootstrap each augmenting path. *)

let solve (cost : float array array) =
  let n = Array.length cost in
  if n = 0 then invalid_arg "Hungarian.solve: empty matrix";
  Array.iter
    (fun r ->
      if Array.length r <> n then
        invalid_arg "Hungarian.solve: matrix not square")
    cost;
  let u = Array.make (n + 1) 0. in
  let v = Array.make (n + 1) 0. in
  let p = Array.make (n + 1) 0 in
  (* p.(j) = row matched to column j *)
  let way = Array.make (n + 1) 0 in
  for i = 1 to n do
    p.(0) <- i;
    let j0 = ref 0 in
    let minv = Array.make (n + 1) infinity in
    let used = Array.make (n + 1) false in
    let continue = ref true in
    while !continue do
      used.(!j0) <- true;
      let i0 = p.(!j0) in
      let delta = ref infinity in
      let j1 = ref 0 in
      for j = 1 to n do
        if not used.(j) then begin
          let cur = cost.(i0 - 1).(j - 1) -. u.(i0) -. v.(j) in
          if cur < minv.(j) then begin
            minv.(j) <- cur;
            way.(j) <- !j0
          end;
          if minv.(j) < !delta then begin
            delta := minv.(j);
            j1 := j
          end
        end
      done;
      for j = 0 to n do
        if used.(j) then begin
          u.(p.(j)) <- u.(p.(j)) +. !delta;
          v.(j) <- v.(j) -. !delta
        end
        else minv.(j) <- minv.(j) -. !delta
      done;
      j0 := !j1;
      if p.(!j0) = 0 then continue := false
    done;
    (* Augment along the alternating path. *)
    let j = ref !j0 in
    while !j <> 0 do
      let j1 = way.(!j) in
      p.(!j) <- p.(j1);
      j := j1
    done
  done;
  let assignment = Array.make n (-1) in
  for j = 1 to n do
    if p.(j) > 0 then assignment.(p.(j) - 1) <- j - 1
  done;
  let total = ref 0. in
  Array.iteri (fun i j -> total := !total +. cost.(i).(j)) assignment;
  (assignment, !total)
