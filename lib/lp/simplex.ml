type relation = Le | Ge | Eq

type row = {
  coeffs : (int * float) list;
  relation : relation;
  rhs : float;
}

type problem = {
  num_vars : int;
  objective : float array;
  rows : row list;
}

type outcome =
  | Optimal of { value : float; solution : float array }
  | Infeasible
  | Unbounded

let row coeffs relation rhs = { coeffs; relation; rhs }

let eps = 1e-9

(* Internal tableau:
   - [a] is an [m x total] coefficient matrix, [b] the rhs (always >= 0 once
     the basis is feasible), [basis.(i)] the basic variable of row [i].
   - [obj] is the current objective row (reduced costs) and [obj_rhs] the
     negated objective value, maintained by the same pivots as the rows. *)
type tableau = {
  m : int;
  total : int;
  a : float array array;
  b : float array;
  basis : int array;
  obj : float array;
  mutable obj_rhs : float;
}

let pivot t ~prow ~pcol =
  let arow = t.a.(prow) in
  let p = arow.(pcol) in
  for j = 0 to t.total - 1 do
    arow.(j) <- arow.(j) /. p
  done;
  t.b.(prow) <- t.b.(prow) /. p;
  for i = 0 to t.m - 1 do
    if i <> prow then begin
      let f = t.a.(i).(pcol) in
      if abs_float f > eps then begin
        let r = t.a.(i) in
        for j = 0 to t.total - 1 do
          r.(j) <- r.(j) -. (f *. arow.(j))
        done;
        t.b.(i) <- t.b.(i) -. (f *. t.b.(prow))
      end
      else t.a.(i).(pcol) <- 0.
    end
  done;
  let f = t.obj.(pcol) in
  if abs_float f > eps then begin
    for j = 0 to t.total - 1 do
      t.obj.(j) <- t.obj.(j) -. (f *. arow.(j))
    done;
    t.obj_rhs <- t.obj_rhs -. (f *. t.b.(prow))
  end
  else t.obj.(pcol) <- 0.;
  t.basis.(prow) <- pcol

(* Ratio test: among rows with a positive pivot-column entry, pick the one
   minimizing b_i / a_ip; ties broken by smallest basic-variable index
   (lexicographic enough to pair with Bland's rule). *)
let leaving_row t pcol =
  let best = ref (-1) in
  let best_ratio = ref infinity in
  for i = 0 to t.m - 1 do
    let aip = t.a.(i).(pcol) in
    if aip > eps then begin
      let ratio = t.b.(i) /. aip in
      if
        ratio < !best_ratio -. eps
        || (ratio < !best_ratio +. eps
            && !best >= 0
            && t.basis.(i) < t.basis.(!best))
      then begin
        best := i;
        best_ratio := ratio
      end
    end
  done;
  !best

(* Entering column.  Dantzig's rule for the first [dantzig_limit] iterations,
   then Bland's rule (smallest index with negative reduced cost) which
   guarantees termination. *)
let entering_col t ~bland ~allowed =
  if bland then begin
    let rec find j =
      if j >= t.total then -1
      else if allowed j && t.obj.(j) < -.eps then j
      else find (j + 1)
    in
    find 0
  end
  else begin
    let best = ref (-1) and best_v = ref (-.eps) in
    for j = 0 to t.total - 1 do
      if allowed j && t.obj.(j) < !best_v then begin
        best := j;
        best_v := t.obj.(j)
      end
    done;
    !best
  end

type iterate_result = Opt | Unb

let iterate t ~allowed =
  let dantzig_limit = 20 * (t.m + t.total) in
  let rec loop iter =
    let bland = iter > dantzig_limit in
    match entering_col t ~bland ~allowed with
    | -1 -> Opt
    | pcol -> (
        match leaving_row t pcol with
        | -1 -> Unb
        | prow ->
            pivot t ~prow ~pcol;
            loop (iter + 1))
  in
  loop 0

let solve (p : problem) : outcome =
  if Array.length p.objective <> p.num_vars then
    invalid_arg "Simplex.solve: objective length <> num_vars";
  let rows = Array.of_list p.rows in
  let m = Array.length rows in
  (* Normalize: rhs >= 0 by flipping rows. *)
  let rows =
    Array.map
      (fun r ->
        if r.rhs < 0. then
          {
            coeffs = List.map (fun (j, c) -> (j, -.c)) r.coeffs;
            relation =
              (match r.relation with Le -> Ge | Ge -> Le | Eq -> Eq);
            rhs = -.r.rhs;
          }
        else r)
      rows
  in
  let n = p.num_vars in
  (* Column layout: structural [0..n-1], one slack/surplus per Le/Ge row,
     then one artificial per Ge/Eq row. *)
  let num_slack =
    Array.fold_left
      (fun acc r -> match r.relation with Le | Ge -> acc + 1 | Eq -> acc)
      0 rows
  in
  let num_art =
    Array.fold_left
      (fun acc r -> match r.relation with Ge | Eq -> acc + 1 | Le -> acc)
      0 rows
  in
  let total = n + num_slack + num_art in
  let a = Array.make_matrix m total 0. in
  let b = Array.make m 0. in
  let basis = Array.make m (-1) in
  let slack_at = ref n and art_at = ref (n + num_slack) in
  Array.iteri
    (fun i r ->
      List.iter
        (fun (j, c) ->
          if j < 0 || j >= n then invalid_arg "Simplex.solve: var index";
          a.(i).(j) <- a.(i).(j) +. c)
        r.coeffs;
      b.(i) <- r.rhs;
      (match r.relation with
      | Le ->
          a.(i).(!slack_at) <- 1.;
          basis.(i) <- !slack_at;
          incr slack_at
      | Ge ->
          a.(i).(!slack_at) <- -1.;
          incr slack_at
      | Eq -> ());
      match r.relation with
      | Ge | Eq ->
          a.(i).(!art_at) <- 1.;
          basis.(i) <- !art_at;
          incr art_at
      | Le -> ())
    rows;
  let t = { m; total; a; b; basis; obj = Array.make total 0.; obj_rhs = 0. } in
  (* Phase 1: minimize the sum of artificials.  The phase-1 objective row is
     the negated sum of rows whose basic variable is artificial. *)
  if num_art > 0 then begin
    for j = n + num_slack to total - 1 do
      t.obj.(j) <- 1.
    done;
    for i = 0 to m - 1 do
      if basis.(i) >= n + num_slack then begin
        for j = 0 to total - 1 do
          t.obj.(j) <- t.obj.(j) -. a.(i).(j)
        done;
        t.obj_rhs <- t.obj_rhs -. b.(i)
      end
    done;
    (match iterate t ~allowed:(fun _ -> true) with
    | Unb -> assert false (* phase-1 objective is bounded below by 0 *)
    | Opt -> ());
    if -.t.obj_rhs > 1e-7 then raise Exit
  end;
  (* Drive remaining artificials out of the basis when possible; rows where
     it is impossible are redundant and can stay (their artificial is 0). *)
  for i = 0 to m - 1 do
    if t.basis.(i) >= n + num_slack then begin
      let rec find j =
        if j >= n + num_slack then ()
        else if abs_float t.a.(i).(j) > 1e-7 then pivot t ~prow:i ~pcol:j
        else find (j + 1)
      in
      find 0
    end
  done;
  (* Phase 2: install the real objective expressed over the current basis. *)
  Array.fill t.obj 0 total 0.;
  t.obj_rhs <- 0.;
  Array.blit p.objective 0 t.obj 0 n;
  for i = 0 to m - 1 do
    let bv = t.basis.(i) in
    let c = if bv < n then p.objective.(bv) else 0. in
    if abs_float c > eps then begin
      for j = 0 to total - 1 do
        t.obj.(j) <- t.obj.(j) -. (c *. t.a.(i).(j))
      done;
      t.obj_rhs <- t.obj_rhs -. (c *. t.b.(i))
    end
  done;
  let artificial j = j >= n + num_slack in
  match iterate t ~allowed:(fun j -> not (artificial j)) with
  | Unb -> Unbounded
  | Opt ->
      let solution = Array.make n 0. in
      for i = 0 to m - 1 do
        if t.basis.(i) < n then solution.(t.basis.(i)) <- t.b.(i)
      done;
      let value =
        Array.to_list solution
        |> List.mapi (fun j x -> p.objective.(j) *. x)
        |> List.fold_left ( +. ) 0.
      in
      Optimal { value; solution }

let solve p = try solve p with Exit -> Infeasible

let feasible (p : problem) (x : float array) =
  let eps = 1e-6 in
  Array.length x = p.num_vars
  && Array.for_all (fun v -> v >= -.eps) x
  && List.for_all
       (fun r ->
         let lhs =
           List.fold_left (fun acc (j, c) -> acc +. (c *. x.(j))) 0. r.coeffs
         in
         match r.relation with
         | Le -> lhs <= r.rhs +. eps
         | Ge -> lhs >= r.rhs -. eps
         | Eq -> abs_float (lhs -. r.rhs) <= eps)
       p.rows
