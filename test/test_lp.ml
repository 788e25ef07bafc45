(* Solver substrate tests: simplex, branch-and-bound MIP, Hungarian. *)

module Simplex = Cdbs_lp.Simplex
module Mip = Cdbs_lp.Mip
module Hungarian = Cdbs_lp.Hungarian

let check_opt ~expected_value outcome =
  match outcome with
  | Simplex.Optimal { value; solution } ->
      Alcotest.(check (float 1e-6)) "objective" expected_value value;
      solution
  | Simplex.Infeasible -> Alcotest.fail "unexpectedly infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpectedly unbounded"

(* max 3x + 2y st x + y <= 4, x + 3y <= 6  -> x=4, y=0, obj 12 *)
let test_simplex_basic () =
  let p =
    {
      Simplex.num_vars = 2;
      objective = [| -3.; -2. |];
      rows =
        [
          Simplex.row [ (0, 1.); (1, 1.) ] Simplex.Le 4.;
          Simplex.row [ (0, 1.); (1, 3.) ] Simplex.Le 6.;
        ];
    }
  in
  let x = check_opt ~expected_value:(-12.) (Simplex.solve p) in
  Alcotest.(check (float 1e-6)) "x" 4. x.(0);
  Alcotest.(check (float 1e-6)) "y" 0. x.(1)

(* Equality and >= constraints: min x + y st x + y = 2, x >= 0.5 *)
let test_simplex_eq_ge () =
  let p =
    {
      Simplex.num_vars = 2;
      objective = [| 1.; 1. |];
      rows =
        [
          Simplex.row [ (0, 1.); (1, 1.) ] Simplex.Eq 2.;
          Simplex.row [ (0, 1.) ] Simplex.Ge 0.5;
        ];
    }
  in
  let x = check_opt ~expected_value:2. (Simplex.solve p) in
  Alcotest.(check bool) "feasible" true (Simplex.feasible p x)

let test_simplex_infeasible () =
  let p =
    {
      Simplex.num_vars = 1;
      objective = [| 1. |];
      rows =
        [
          Simplex.row [ (0, 1.) ] Simplex.Ge 3.;
          Simplex.row [ (0, 1.) ] Simplex.Le 2.;
        ];
    }
  in
  match Simplex.solve p with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_simplex_unbounded () =
  let p =
    {
      Simplex.num_vars = 2;
      objective = [| -1.; 0. |];
      rows = [ Simplex.row [ (1, 1.) ] Simplex.Le 1. ];
    }
  in
  match Simplex.solve p with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

(* Negative rhs requires row normalization. *)
let test_simplex_negative_rhs () =
  let p =
    {
      Simplex.num_vars = 1;
      objective = [| 1. |];
      rows = [ Simplex.row [ (0, -1.) ] Simplex.Le (-2.) ];
    }
  in
  (* -x <= -2 means x >= 2; minimize x -> 2. *)
  let x = check_opt ~expected_value:2. (Simplex.solve p) in
  Alcotest.(check (float 1e-6)) "x" 2. x.(0)

(* Degenerate problem exercising many pivots. *)
let test_simplex_degenerate () =
  let n = 12 in
  let rows =
    List.init n (fun i ->
        Simplex.row [ (i, 1.); ((i + 1) mod n, 1.) ] Simplex.Le 1.)
  in
  let p =
    { Simplex.num_vars = n; objective = Array.make n (-1.); rows }
  in
  match Simplex.solve p with
  | Simplex.Optimal { value; solution } ->
      Alcotest.(check bool) "feasible" true (Simplex.feasible p solution);
      (* Optimal packing of a cycle: n/2 for even n. *)
      Alcotest.(check (float 1e-6)) "value" (-6.) value
  | _ -> Alcotest.fail "expected optimum"

(* Knapsack-style MIP: max 5a + 4b + 3c st 2a + 3b + c <= 5, binaries.
   Optimum: a=1, c=1 (value 8) beats b combinations. *)
let test_mip_knapsack () =
  let lp =
    {
      Simplex.num_vars = 3;
      objective = [| -5.; -4.; -3. |];
      rows =
        Simplex.row [ (0, 2.); (1, 3.); (2, 1.) ] Simplex.Le 5.
        :: List.map (fun j -> Simplex.row [ (j, 1.) ] Simplex.Le 1.) [ 0; 1; 2 ];
    }
  in
  match Mip.solve { Mip.lp; integer_vars = [ 0; 1; 2 ] } with
  | Mip.Solved s ->
      Alcotest.(check (float 1e-6)) "value" (-9.) s.Mip.value;
      Alcotest.(check bool) "proved" true s.Mip.proved_optimal
  | Mip.No_solution -> Alcotest.fail "expected solution"

let test_mip_integrality_gap () =
  (* max x st 2x <= 3, x integer -> x = 1 (LP relaxation gives 1.5). *)
  let lp =
    {
      Simplex.num_vars = 1;
      objective = [| -1. |];
      rows = [ Simplex.row [ (0, 2.) ] Simplex.Le 3. ];
    }
  in
  match Mip.solve { Mip.lp; integer_vars = [ 0 ] } with
  | Mip.Solved s ->
      Alcotest.(check (float 1e-6)) "value" (-1.) s.Mip.value;
      Alcotest.(check (float 1e-6)) "x" 1. s.Mip.assignment.(0)
  | Mip.No_solution -> Alcotest.fail "expected solution"

let test_mip_infeasible () =
  let lp =
    {
      Simplex.num_vars = 1;
      objective = [| 1. |];
      rows =
        [
          Simplex.row [ (0, 2.) ] Simplex.Ge 1.;
          Simplex.row [ (0, 2.) ] Simplex.Le 1.9;
        ];
    }
  in
  (* 0.5 <= x <= 0.95 has no integer point. *)
  match Mip.solve { Mip.lp; integer_vars = [ 0 ] } with
  | Mip.No_solution -> ()
  | Mip.Solved _ -> Alcotest.fail "expected no solution"

let test_hungarian_identity () =
  let cost = [| [| 0.; 5. |]; [| 5.; 0. |] |] in
  let assignment, total = Hungarian.solve cost in
  Alcotest.(check (array int)) "assignment" [| 0; 1 |] assignment;
  Alcotest.(check (float 1e-9)) "total" 0. total

let test_hungarian_classic () =
  (* Classic 3x3 example; optimum is 5 (1,3 -> no: verify by brute force). *)
  let cost = [| [| 4.; 1.; 3. |]; [| 2.; 0.; 5. |]; [| 3.; 2.; 2. |] |] in
  let _, total = Hungarian.solve cost in
  (* Brute force the 6 permutations. *)
  let perms = [ [0;1;2]; [0;2;1]; [1;0;2]; [1;2;0]; [2;0;1]; [2;1;0] ] in
  let best =
    List.fold_left
      (fun acc p ->
        min acc
          (List.fold_left ( +. ) 0.
             (List.mapi (fun i j -> cost.(i).(j)) p)))
      infinity perms
  in
  Alcotest.(check (float 1e-9)) "matches brute force" best total

let test_hungarian_random_vs_bruteforce () =
  let rng = Cdbs_util.Rng.create 42 in
  for _ = 1 to 25 do
    let n = 2 + Cdbs_util.Rng.int rng 4 in
    let cost =
      Array.init n (fun _ ->
          Array.init n (fun _ -> Cdbs_util.Rng.float rng 10.))
    in
    let _, total = Hungarian.solve cost in
    (* Brute force over all permutations. *)
    let best = ref infinity in
    let rec permute acc remaining =
      match remaining with
      | [] ->
          let c =
            List.fold_left ( +. ) 0.
              (List.mapi (fun i j -> cost.(i).(j)) (List.rev acc))
          in
          if c < !best then best := c
      | _ ->
          List.iter
            (fun j ->
              permute (j :: acc) (List.filter (fun x -> x <> j) remaining))
            remaining
    in
    permute [] (List.init n (fun i -> i));
    Alcotest.(check (float 1e-6)) "optimal" !best total
  done

(* The paper's Section 3 read-only example solved exactly: on 2 backends the
   optimum replicates exactly one relation. *)
let test_optimal_readonly_example () =
  let open Cdbs_core in
  let fr name = Fragment.table name ~size:1. in
  let w =
    Workload.make
      ~reads:
        [
          Query_class.read "C1" [ fr "A" ] ~weight:0.30;
          Query_class.read "C2" [ fr "B" ] ~weight:0.25;
          Query_class.read "C3" [ fr "C" ] ~weight:0.25;
          Query_class.read "C4" [ fr "A"; fr "B" ] ~weight:0.20;
        ]
      ~updates:[]
  in
  match Optimal.allocate w (Backend.homogeneous 2) with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check bool) "proved optimal" true r.Optimal.proved_optimal;
      Alcotest.(check (float 1e-6)) "scale 1" 1. r.Optimal.scale;
      Alcotest.(check (float 1e-6)) "space 4 (one table replicated)" 4.
        r.Optimal.space;
      (match Allocation.validate r.Optimal.allocation with
      | Ok () -> ()
      | Error es -> Alcotest.failf "invalid: %s" (String.concat "; " es))

(* Update-aware optimum on the Appendix A workload, homogeneous 4 backends.
   Q4 references {A, B}, so some backend carries U1+U2 (14%) plus read load;
   since Q1+U1 (28%) exceeds one backend, A is replicated and the best
   achievable maximum backend load is 30% (e.g. B1{A,B}: U1+U2+Q4 = 30%,
   B2{B}: U2+Q2 = 30%, B3{A}: U1+Q1 = 28%, B4{C}: U3+Q3 = 26%), i.e.
   scale = 0.30/0.25 = 1.2 — the structure of the paper's Figure 7. *)
let test_optimal_appendix_homogeneous () =
  let open Cdbs_core in
  let fr name = Fragment.table name ~size:1. in
  let w =
    Workload.make
      ~reads:
        [
          Query_class.read "Q1" [ fr "A" ] ~weight:0.24;
          Query_class.read "Q2" [ fr "B" ] ~weight:0.20;
          Query_class.read "Q3" [ fr "C" ] ~weight:0.20;
          Query_class.read "Q4" [ fr "A"; fr "B" ] ~weight:0.16;
        ]
      ~updates:
        [
          Query_class.update "U1" [ fr "A" ] ~weight:0.04;
          Query_class.update "U2" [ fr "B" ] ~weight:0.10;
          Query_class.update "U3" [ fr "C" ] ~weight:0.06;
        ]
  in
  match Optimal.allocate ~node_limit:200_000 w (Backend.homogeneous 4) with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check bool) "proved optimal" true r.Optimal.proved_optimal;
      Alcotest.(check (float 1e-6)) "scale 1.2" 1.2 r.Optimal.scale;
      (match Allocation.validate r.Optimal.allocation with
      | Ok () -> ()
      | Error es -> Alcotest.failf "invalid: %s" (String.concat "; " es))

let suite =
  [
    Alcotest.test_case "simplex: basic max" `Quick test_simplex_basic;
    Alcotest.test_case "simplex: eq and ge rows" `Quick test_simplex_eq_ge;
    Alcotest.test_case "simplex: infeasible" `Quick test_simplex_infeasible;
    Alcotest.test_case "simplex: unbounded" `Quick test_simplex_unbounded;
    Alcotest.test_case "simplex: negative rhs" `Quick
      test_simplex_negative_rhs;
    Alcotest.test_case "simplex: degenerate cycle" `Quick
      test_simplex_degenerate;
    Alcotest.test_case "mip: knapsack" `Quick test_mip_knapsack;
    Alcotest.test_case "mip: integrality gap" `Quick test_mip_integrality_gap;
    Alcotest.test_case "mip: infeasible" `Quick test_mip_infeasible;
    Alcotest.test_case "hungarian: identity" `Quick test_hungarian_identity;
    Alcotest.test_case "hungarian: classic 3x3" `Quick test_hungarian_classic;
    Alcotest.test_case "hungarian: random vs brute force" `Quick
      test_hungarian_random_vs_bruteforce;
    Alcotest.test_case "optimal: read-only example" `Quick
      test_optimal_readonly_example;
    Alcotest.test_case "optimal: appendix A homogeneous" `Slow
      test_optimal_appendix_homogeneous;
  ]
