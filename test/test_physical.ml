(* Physical allocation: Hungarian matching of new to old backends,
   transfer deltas, elastic padding, ETL duration model. *)

open Cdbs_core

let fr ?(size = 1.) name = Fragment.table name ~size
let set = Fragment.Set.of_list

let workload () =
  Workload.make
    ~reads:
      [
        Query_class.read "q1" [ fr "a" ] ~weight:0.4;
        Query_class.read "q2" [ fr "b" ] ~weight:0.3;
        Query_class.read "q3" [ fr "c" ] ~weight:0.3;
      ]
    ~updates:[]

let test_transfer_cost () =
  Alcotest.(check (float 1e-9)) "missing data only" 1.
    (Physical.transfer_cost
       ~old_fragments:(set [ fr "a" ])
       (set [ fr "a"; fr "b" ]));
  Alcotest.(check (float 1e-9)) "already in place" 0.
    (Physical.transfer_cost
       ~old_fragments:(set [ fr "a"; fr "b" ])
       (set [ fr "a" ]))

let test_plan_identity () =
  (* A new allocation identical to the old one must cost nothing and map
     each backend to itself (or an equivalent permutation of zero cost). *)
  let w = workload () in
  let alloc = Greedy.allocate w (Backend.homogeneous 3) in
  let plan =
    Physical.plan_scaled
      ~old_fragments:(List.init 3 (Allocation.fragments_of alloc))
      alloc
  in
  Alcotest.(check (float 1e-9)) "no transfer" 0. plan.Physical.transfer

let test_plan_prefers_cheap_matching () =
  (* Old: B1 holds a, B2 holds b.  New: backend 0 wants b, backend 1 wants
     a.  The matching must cross the backends instead of re-shipping. *)
  let old_sets = [ set [ fr "a" ]; set [ fr "b" ] ] in
  let w = workload () in
  let alloc = Allocation.create w (Backend.homogeneous 2) in
  Allocation.add_fragments alloc 0 (set [ fr "b" ]);
  Allocation.add_fragments alloc 1 (set [ fr "a" ]);
  let plan = Physical.plan_scaled ~old_fragments:old_sets alloc in
  Alcotest.(check (float 1e-9)) "crossed for free" 0. plan.Physical.transfer;
  Alcotest.(check (array int)) "mapping" [| 1; 0 |] plan.Physical.mapping

let test_plan_scale_out () =
  (* Scale 1 -> 3: the new empty nodes receive their data; the existing
     node keeps what it has. *)
  let old_sets = [ set [ fr "a"; fr "b"; fr "c" ] ] in
  let w = workload () in
  let alloc = Allocation.create w (Backend.homogeneous 3) in
  Allocation.add_fragments alloc 0 (set [ fr "a" ]);
  Allocation.add_fragments alloc 1 (set [ fr "b" ]);
  Allocation.add_fragments alloc 2 (set [ fr "c" ]);
  let plan = Physical.plan_scaled ~old_fragments:old_sets alloc in
  (* One of the three new backends lands on the old node (0 MB); the other
     two are fresh and receive one fragment each. *)
  Alcotest.(check (float 1e-9)) "2 fragments shipped" 2. plan.Physical.transfer;
  let fresh = Array.to_list plan.Physical.mapping |> List.filter (( = ) (-1)) in
  Alcotest.(check int) "two fresh nodes" 2 (List.length fresh)

let test_plan_scale_in () =
  (* Scale 3 -> 1: everything must end on the surviving node; data it does
     not already hold is shipped. *)
  let old_sets = [ set [ fr "a" ]; set [ fr "b" ]; set [ fr "c" ] ] in
  let w = workload () in
  let alloc = Allocation.create w (Backend.homogeneous 1) in
  Allocation.add_fragments alloc 0 (set [ fr "a"; fr "b"; fr "c" ]);
  let plan = Physical.plan_scaled ~old_fragments:old_sets alloc in
  Alcotest.(check (float 1e-9)) "ships the two missing" 2.
    plan.Physical.transfer

let test_deltas () =
  let old_sets = [ set [ fr "a" ]; set [ fr "b" ] ] in
  let new_sets = [ set [ fr "a"; fr "c" ]; set [ fr "b" ] ] in
  let w = workload () in
  let alloc = Allocation.create w (Backend.homogeneous 2) in
  Allocation.add_fragments alloc 0 (List.nth new_sets 0);
  Allocation.add_fragments alloc 1 (List.nth new_sets 1);
  let plan = Physical.plan_scaled ~old_fragments:old_sets alloc in
  Alcotest.(check (array int)) "each backend keeps its old node" [| 0; 1 |]
    plan.Physical.mapping;
  Alcotest.(check (float 1e-9)) "c is shipped to backend 0"
    (Fragment.set_size
       (Fragment.Set.diff (List.nth new_sets 0) (List.nth old_sets 0)))
    plan.Physical.per_backend.(0);
  Alcotest.(check (float 1e-9)) "backend 1 receives nothing" 0.
    plan.Physical.per_backend.(1)

let test_duration_monotone () =
  (* Shipping more takes longer; full replication on more nodes takes
     longer (the serial network stage). *)
  let w = workload () in
  let d n =
    let alloc = Baselines.full_replication w (Backend.homogeneous n) in
    let empty = List.init n (fun _ -> Fragment.Set.empty) in
    let plan = Physical.plan_scaled ~old_fragments:empty alloc in
    Physical.duration plan ~fragmentation:0.
  in
  Alcotest.(check bool) "3 nodes slower than 1" true (d 3 > d 1);
  Alcotest.(check bool) "6 nodes slower than 3" true (d 6 > d 3)

let test_plan_roundtrip () =
  (* Scale 2 -> 3 and straight back: the scale-in must recognize the two
     surviving nodes already hold their data and ship nothing. *)
  let w = workload () in
  let two_node_sets = [ set [ fr "a" ]; set [ fr "b" ] ] in
  let out = Allocation.create w (Backend.homogeneous 3) in
  Allocation.add_fragments out 0 (set [ fr "a" ]);
  Allocation.add_fragments out 1 (set [ fr "b" ]);
  Allocation.add_fragments out 2 (set [ fr "c" ]);
  let plan_out = Physical.plan_scaled ~old_fragments:two_node_sets out in
  Alcotest.(check (float 1e-9)) "scale-out ships only c" 1.
    plan_out.Physical.transfer;
  (* Physical state after deploying the scale-out. *)
  let three_node_sets = List.init 3 (Allocation.fragments_of out) in
  let back = Allocation.create w (Backend.homogeneous 2) in
  Allocation.add_fragments back 0 (set [ fr "a" ]);
  Allocation.add_fragments back 1 (set [ fr "b" ]);
  let plan_in = Physical.plan_scaled ~old_fragments:three_node_sets back in
  Alcotest.(check (float 1e-9)) "scale-in is free" 0. plan_in.Physical.transfer;
  Alcotest.(check (array int)) "survivors keep their data" [| 0; 1 |]
    plan_in.Physical.mapping

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          List.map
            (fun p -> x :: p)
            (permutations (List.filter (( <> ) x) l)))
        l

let test_plan_bruteforce_optimal () =
  (* On instances small enough to enumerate every matching, the Hungarian
     plan must hit the exact optimum, scale-out and scale-in included. *)
  let rng = Cdbs_util.Rng.create 42 in
  let pool =
    [ fr ~size:1. "a"; fr ~size:2. "b"; fr ~size:3. "c"; fr ~size:4. "d" ]
  in
  let random_set () =
    set (List.filter (fun _ -> Cdbs_util.Rng.bool rng) pool)
  in
  let w = workload () in
  for _ = 1 to 60 do
    let nu = 1 + Cdbs_util.Rng.int rng 4
    and nv = 1 + Cdbs_util.Rng.int rng 4 in
    let old_sets = List.init nu (fun _ -> random_set ()) in
    let alloc = ref (Allocation.create w (Backend.homogeneous nv)) in
    for i = 0 to nv - 1 do
      alloc := Gen.plant !alloc i (random_set ())
    done;
    let alloc = !alloc in
    let plan = Physical.plan_scaled ~old_fragments:old_sets alloc in
    let m = max nu nv in
    let old_padded =
      Array.init m (fun i ->
          if i < nu then List.nth old_sets i else Fragment.Set.empty)
    in
    let new_padded =
      Array.init m (fun j ->
          if j < nv then Allocation.fragments_of alloc j
          else Fragment.Set.empty)
    in
    let best =
      List.fold_left
        (fun acc perm ->
          let cost =
            List.fold_left ( +. ) 0.
              (List.mapi
                 (fun j i ->
                   Physical.transfer_cost ~old_fragments:old_padded.(i)
                     new_padded.(j))
                 perm)
          in
          min acc cost)
        infinity
        (permutations (List.init m (fun i -> i)))
    in
    Alcotest.(check (float 1e-6)) "matches brute force" best
      plan.Physical.transfer
  done

(* Property: matching never costs more than the identity mapping. *)
let prop_matching_no_worse_than_identity =
  QCheck.Test.make ~count:150 ~name:"hungarian matching beats identity"
    Gen.scenario_arbitrary (fun (w, backends) ->
      let n = List.length backends in
      let rng = Cdbs_util.Rng.create 3 in
      let old_alloc = Baselines.random_placement ~rng w backends in
      let new_alloc = Greedy.allocate w backends in
      let old_sets = List.init n (Allocation.fragments_of old_alloc) in
      let plan = Physical.plan_scaled ~old_fragments:old_sets new_alloc in
      let identity_cost =
        List.fold_left ( +. ) 0.
          (List.mapi
             (fun i old ->
               Physical.transfer_cost ~old_fragments:old
                 (Allocation.fragments_of new_alloc i))
             old_sets)
      in
      plan.Physical.transfer <= identity_cost +. 1e-6)

let suite =
  [
    Alcotest.test_case "transfer cost (Eq. 27)" `Quick test_transfer_cost;
    Alcotest.test_case "identity plan is free" `Quick test_plan_identity;
    Alcotest.test_case "matching crosses backends" `Quick
      test_plan_prefers_cheap_matching;
    Alcotest.test_case "scale-out pads with empty nodes" `Quick
      test_plan_scale_out;
    Alcotest.test_case "scale-in consolidates" `Quick test_plan_scale_in;
    Alcotest.test_case "per-backend deltas" `Quick test_deltas;
    Alcotest.test_case "scale-out/scale-in roundtrip" `Quick
      test_plan_roundtrip;
    Alcotest.test_case "matching is brute-force optimal" `Quick
      test_plan_bruteforce_optimal;
    Alcotest.test_case "duration model monotone" `Quick test_duration_monotone;
    QCheck_alcotest.to_alcotest prop_matching_no_worse_than_identity;
  ]
