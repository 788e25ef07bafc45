type problem = {
  lp : Simplex.problem;
  integer_vars : int list;
}

type solution = {
  value : float;
  assignment : float array;
  proved_optimal : bool;
}

type outcome = Solved of solution | No_solution

let int_tol = 1e-6

(* Pick the integer variable whose relaxation value is closest to 0.5
   (most fractional first). *)
let branch_var integer_vars (x : float array) =
  let best = ref None and best_frac = ref 0. in
  List.iter
    (fun j ->
      let f = abs_float (x.(j) -. Float.round x.(j)) in
      if f > int_tol && f > !best_frac then begin
        best := Some j;
        best_frac := f
      end)
    integer_vars;
  !best

let objective_value obj x =
  let acc = ref 0. in
  Array.iteri (fun j c -> acc := !acc +. (c *. x.(j))) obj;
  !acc

let solve ?(node_limit = 200_000) ?incumbent (p : problem) : outcome =
  let best_value = ref infinity in
  let best_point = ref None in
  (match incumbent with
  | Some x when Simplex.feasible p.lp x ->
      best_value := objective_value p.lp.objective x;
      best_point := Some (Array.copy x)
  | _ -> ());
  let nodes = ref 0 in
  let exhausted = ref false in
  (* [extra] is the list of bound rows accumulated along the current branch. *)
  let rec explore extra =
    if !nodes >= node_limit then exhausted := true
    else begin
      incr nodes;
      let lp = { p.lp with Simplex.rows = extra @ p.lp.rows } in
      match Simplex.solve lp with
      | Simplex.Infeasible | Simplex.Unbounded -> ()
      | Simplex.Optimal { value; solution } ->
          if value < !best_value -. 1e-9 then begin
            match branch_var p.integer_vars solution with
            | None ->
                best_value := value;
                best_point := Some (Array.copy solution)
            | Some j ->
                let v = solution.(j) in
                let lo = floor v and hi = ceil v in
                (* Explore the side closer to the relaxation value first. *)
                let down () =
                  explore (Simplex.row [ (j, 1.) ] Simplex.Le lo :: extra)
                and up () =
                  explore (Simplex.row [ (j, 1.) ] Simplex.Ge hi :: extra)
                in
                if v -. lo <= hi -. v then begin
                  down ();
                  up ()
                end
                else begin
                  up ();
                  down ()
                end
          end
    end
  in
  explore [];
  match !best_point with
  | None -> No_solution
  | Some assignment ->
      (* Snap integer variables exactly. *)
      List.iter
        (fun j -> assignment.(j) <- Float.round assignment.(j))
        p.integer_vars;
      Solved
        {
          value = !best_value;
          assignment;
          proved_optimal = not !exhausted;
        }
