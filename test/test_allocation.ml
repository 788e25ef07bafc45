(* Allocation structure and algorithm invariants, including property-based
   tests over random workloads and clusters. *)

open Cdbs_core

let fr ?(size = 1.) name = Fragment.table name ~size

let simple_workload () =
  Workload.make
    ~reads:
      [
        Query_class.read "q1" [ fr "a" ] ~weight:0.5;
        Query_class.read "q2" [ fr "b" ] ~weight:0.3;
      ]
    ~updates:[ Query_class.update "u1" [ fr "a"; fr "b" ] ~weight:0.2 ]

(* ---------------- structure ---------------- *)

let test_assign_requires_fragments () =
  let w = simple_workload () in
  let alloc = Allocation.create w (Backend.homogeneous 2) in
  let q1 = Option.get (Workload.find w "q1") in
  Allocation.set_assign alloc 0 q1 0.5;
  match Allocation.validate alloc with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "assignment without data accepted"

let test_update_closure () =
  let w = simple_workload () in
  let alloc = Allocation.create w (Backend.homogeneous 2) in
  let q1 = Option.get (Workload.find w "q1") in
  let u1 = Option.get (Workload.find w "u1") in
  (* Placing only fragment a on B1 must pull in u1 entirely (and with it
     fragment b). *)
  Allocation.add_fragments alloc 0 q1.Query_class.fragments;
  Allocation.ensure_update_closure alloc;
  Alcotest.(check (float 1e-9)) "u1 pinned" 0.2 (Allocation.get_assign alloc 0 u1);
  Alcotest.(check bool) "b present too" true (Allocation.holds alloc 0 u1)

let test_scale_and_speedup () =
  let w = simple_workload () in
  let alloc = Greedy.allocate w (Backend.homogeneous 2) in
  let s = Allocation.scale alloc in
  Alcotest.(check bool) "scale >= 1" true (s >= 1.);
  Alcotest.(check (float 1e-9)) "speedup consistent"
    (2. /. s) (Allocation.speedup alloc)

let test_update_weight_eq13 () =
  let w = simple_workload () in
  let alloc = Greedy.allocate w (Backend.homogeneous 1) in
  let q1 = Option.get (Workload.find w "q1") in
  (* One backend: u1 is pinned there, so updateWeight(B1, q1) = 0.2. *)
  Alcotest.(check (float 1e-9)) "Eq. 13" 0.2
    (List.fold_left
       (fun acc u -> acc +. Allocation.get_assign alloc 0 u)
       0. (Workload.updates_of w q1))

let test_copy_independent () =
  let w = simple_workload () in
  let a1 = Greedy.allocate w (Backend.homogeneous 2) in
  let a2 = Allocation.copy a1 in
  let q1 = Option.get (Workload.find w "q1") in
  Allocation.set_assign a2 0 q1 0.;
  Alcotest.(check bool) "copy is independent" true
    (Allocation.get_assign a1 0 q1 <> Allocation.get_assign a2 0 q1)

(* ---------------- replication / balance ---------------- *)

let test_degree_full_replication () =
  let w = simple_workload () in
  let alloc = Baselines.full_replication w (Backend.homogeneous 4) in
  Alcotest.(check (float 1e-9)) "degree n" 4. (Replication.degree alloc);
  Alcotest.(check int) "every fragment 4x" 4 (Replication.min_replicas alloc)

let test_histogram () =
  let w = simple_workload () in
  let alloc = Baselines.full_replication w (Backend.homogeneous 3) in
  let h = Replication.histogram alloc ~max_replicas:3 in
  Alcotest.(check (array int)) "all at 3" [| 0; 0; 2 |] h

let test_balance_full_replication () =
  let w = simple_workload () in
  let alloc = Baselines.full_replication w (Backend.homogeneous 4) in
  (* Updates pinned everywhere create equal overload: perfectly balanced. *)
  Alcotest.(check (float 1e-9)) "balanced" 0. (Gen.load_deviation alloc)

(* ---------------- greedy properties ---------------- *)

let prop_greedy_valid =
  QCheck.Test.make ~count:300 ~name:"greedy allocations are always valid"
    Gen.scenario_arbitrary (fun (w, backends) ->
      match Allocation.validate (Greedy.allocate w backends) with
      | Ok () -> true
      | Error _ -> false)

let homogeneous backends =
  match backends with
  | [] -> true
  | b :: rest ->
      List.for_all
        (fun b' -> abs_float (b'.Backend.load -. b.Backend.load) < 1e-9)
        rest

let prop_greedy_scale_bounds =
  (* Eq. 17 is stated for homogeneous clusters; with heterogeneous
     capacities a heavy update class on a fast node evades the bound. *)
  QCheck.Test.make ~count:300
    ~name:"greedy scale is >= 1 and speedup respects Eq. 17 (homogeneous)"
    Gen.scenario_arbitrary (fun (w, backends) ->
      let alloc = Greedy.allocate w backends in
      let nodes = List.length backends in
      Allocation.scale alloc >= 1. -. 1e-9
      && ((not (homogeneous backends))
         || Allocation.speedup alloc
            <= Speedup.max_speedup_bound w ~nodes +. 1e-6))

let prop_memetic_never_worse_than_seed =
  (* Guaranteed by construction: the seed stays in the candidate set. *)
  QCheck.Test.make ~count:60 ~name:"memetic is never worse than its seed"
    Gen.scenario_arbitrary (fun (w, backends) ->
      let seed = Greedy.allocate w backends in
      let params =
        { Memetic.default_params with Memetic.iterations = 8; population = 5 }
      in
      let improved = Memetic.improve ~params ~rng:(Cdbs_util.Rng.create 17) seed in
      let cost a = (Allocation.scale a, Allocation.total_stored a) in
      let s_seed = cost seed and s_impr = cost improved in
      (match Allocation.validate improved with Ok () -> true | Error _ -> false)
      && (fst s_impr < fst s_seed +. 1e-9
         || (abs_float (fst s_impr -. fst s_seed) <= 1e-9
            && snd s_impr <= snd s_seed +. 1e-6)))

let prop_greedy_stores_less =
  QCheck.Test.make ~count:200
    ~name:"greedy never stores more than full replication"
    Gen.scenario_arbitrary (fun (w, backends) ->
      let greedy = Greedy.allocate w backends in
      let full = Baselines.full_replication w backends in
      Allocation.total_stored greedy <= Allocation.total_stored full +. 1e-6)

let prop_readonly_scale_is_one =
  QCheck.Test.make ~count:200 ~name:"read-only greedy reaches scale 1"
    Gen.scenario_arbitrary (fun (w, backends) ->
      let readonly = Workload.normalize { w with Workload.updates = [] } in
      if readonly.Workload.reads = [] then true
      else
        let alloc = Greedy.allocate readonly backends in
        abs_float (Allocation.scale alloc -. 1.) < 1e-6)

let prop_full_replication_valid =
  QCheck.Test.make ~count:200 ~name:"full replication is always valid"
    Gen.scenario_arbitrary (fun (w, backends) ->
      match Allocation.validate (Baselines.full_replication w backends) with
      | Ok () -> true
      | Error _ -> false)

let prop_random_placement_valid =
  QCheck.Test.make ~count:200 ~name:"random placement is always valid"
    Gen.scenario_arbitrary (fun (w, backends) ->
      let rng = Cdbs_util.Rng.create 9 in
      match
        Allocation.validate (Baselines.random_placement ~rng w backends)
      with
      | Ok () -> true
      | Error _ -> false)

(* ---------------- fragment order and class ids ---------------- *)

(* Pairs of kinds over names with shared prefixes and range bounds drawn
   mostly from the float edge cases.  Half the pairs differ in one field
   only, so every field's comparison decides some of them. *)
let kind_pair_gen =
  let open QCheck.Gen in
  let name = oneofl [ ""; "a"; "ab"; "b"; "ba" ] in
  let bound =
    frequency
      [
        (4, oneofl [ nan; -0.; 0.; infinity; neg_infinity; 1.; -1. ]);
        (1, float);
      ]
  in
  let kind =
    oneof
      [
        map (fun n -> Fragment.Table n) name;
        map2 (fun table column -> Fragment.Column { table; column }) name name;
        map4
          (fun table column lo hi -> Fragment.Range { table; column; lo; hi })
          name name bound bound;
      ]
  in
  let tweak = function
    | Fragment.Table _ -> map (fun n -> Fragment.Table n) name
    | Fragment.Column c ->
        oneof
          [
            map (fun table -> Fragment.Column { c with table }) name;
            map (fun column -> Fragment.Column { c with column }) name;
          ]
    | Fragment.Range r ->
        oneof
          [
            map (fun table -> Fragment.Range { r with table }) name;
            map (fun column -> Fragment.Range { r with column }) name;
            map (fun lo -> Fragment.Range { r with lo }) bound;
            map (fun hi -> Fragment.Range { r with hi }) bound;
          ]
  in
  kind >>= fun a -> map (fun b -> (a, b)) (oneof [ kind; tweak a ])

let prop_fragment_compare_is_stdlib_order =
  let print k = Fragment.name { Fragment.kind = k; size = 0. } in
  QCheck.Test.make ~count:2000
    ~name:"Fragment.compare has the sign of Stdlib.compare on kinds"
    (QCheck.make ~print:(QCheck.Print.pair print print) kind_pair_gen)
    (fun (a, b) ->
      let sign x = Int.compare x 0 in
      sign
        (Fragment.compare
           { Fragment.kind = a; size = 1. }
           { Fragment.kind = b; size = 2. })
      = sign (Stdlib.compare a b))

let test_duplicate_class_ids_rejected () =
  (* Two classes with one id would share an assignment column. *)
  let w =
    Workload.make
      ~reads:
        [
          Query_class.read "q" [ fr "a" ] ~weight:0.5;
          Query_class.read "q" [ fr "b" ] ~weight:0.5;
        ]
      ~updates:[]
  in
  match Allocation.create w (Backend.homogeneous 2) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate class ids accepted"

(* The representation's tests first, then the allocators' properties. *)
let suite =
  [
    Alcotest.test_case "assign requires fragments" `Quick
      test_assign_requires_fragments;
    Alcotest.test_case "create rejects duplicate class ids" `Quick
      test_duplicate_class_ids_rejected;
    Alcotest.test_case "update closure (Eq. 10)" `Quick test_update_closure;
    Alcotest.test_case "scale and speedup (Eqs. 15, 19)" `Quick
      test_scale_and_speedup;
    Alcotest.test_case "updateWeight (Eq. 13)" `Quick test_update_weight_eq13;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    Alcotest.test_case "degree of replication (Eq. 28)" `Quick
      test_degree_full_replication;
    Alcotest.test_case "replication histogram" `Quick test_histogram;
    Alcotest.test_case "balance of full replication" `Quick
      test_balance_full_replication;
    QCheck_alcotest.to_alcotest prop_fragment_compare_is_stdlib_order;
    QCheck_alcotest.to_alcotest prop_greedy_valid;
    QCheck_alcotest.to_alcotest prop_greedy_scale_bounds;
    QCheck_alcotest.to_alcotest prop_memetic_never_worse_than_seed;
    QCheck_alcotest.to_alcotest prop_greedy_stores_less;
    QCheck_alcotest.to_alcotest prop_readonly_scale_is_one;
    QCheck_alcotest.to_alcotest prop_full_replication_valid;
    QCheck_alcotest.to_alcotest prop_random_placement_valid;
  ]
