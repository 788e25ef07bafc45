(* Time-segmented allocation (Sec. 5) and the memetic local searches. *)

open Cdbs_core

let fr ?(size = 1.) name = Fragment.table name ~size

(* A journal whose mix flips halfway through the "day". *)
let flipping_journal () =
  let j = Journal.create () in
  for i = 0 to 99 do
    let at = float_of_int i *. 60. in
    if i < 50 then Journal.record_at j ~at ~sql:"SELECT x FROM night" ~cost:2.
    else Journal.record_at j ~at ~sql:"SELECT y FROM day" ~cost:2.;
    (* A constant background class. *)
    Journal.record_at j ~at ~sql:"SELECT z FROM base" ~cost:0.5
  done;
  j

let schema : Cdbs_storage.Schema.t =
  [
    Cdbs_storage.Schema.table "night" [ ("x", Cdbs_storage.Schema.T_int) ];
    Cdbs_storage.Schema.table "day" [ ("y", Cdbs_storage.Schema.T_int) ];
    Cdbs_storage.Schema.table "base" [ ("z", Cdbs_storage.Schema.T_int) ];
  ]

let classify j =
  Workload.normalize
    (Classification.classify ~schema ~size_of:(fun _ -> 1.)
       Classification.By_table j)

let test_segmentation_finds_flip () =
  let segments =
    Segmented.segment_journal ~window:600. ~threshold:0.4 (flipping_journal ())
  in
  Alcotest.(check int) "two segments" 2 (List.length segments);
  match segments with
  | [ s1; s2 ] ->
      (* The flip happens at entry 50 = 3000 s. *)
      Alcotest.(check bool) "boundary near 3000s" true
        (abs_float (s1.Segmented.end_time -. 3000.) <= 600.);
      Alcotest.(check bool) "contiguous" true
        (s1.Segmented.end_time = s2.Segmented.start_time)
  | _ -> Alcotest.fail "expected exactly two segments"

let test_segmentation_stable_journal () =
  let j = Journal.create () in
  for i = 0 to 99 do
    Journal.record_at j ~at:(float_of_int i *. 60.) ~sql:"SELECT z FROM base"
      ~cost:1.
  done;
  let segments = Segmented.segment_journal ~window:600. ~threshold:0.4 j in
  Alcotest.(check int) "one segment" 1 (List.length segments)

let test_segmented_allocation_serves_both_phases () =
  let allocate w = Greedy.allocate w (Backend.homogeneous 3) in
  let merged, segments =
    Segmented.allocate_segmented ~classify ~allocate ~window:600.
      ~threshold:0.4 (flipping_journal ())
  in
  Alcotest.(check int) "two segments" 2 (List.length segments);
  Alcotest.(check bool) "valid" true (Allocation.validate merged = Ok ());
  (* The merged placement holds every table some segment needed. *)
  let all = Workload.fragments (Allocation.workload merged) in
  let stored =
    List.fold_left
      (fun acc b -> Fragment.Set.union acc (Allocation.fragments_of merged b))
      Fragment.Set.empty
      (List.init 3 (fun b -> b))
  in
  Alcotest.(check bool) "covers all fragments" true
    (Fragment.Set.subset all stored)

let test_merge_balances () =
  let w =
    Workload.make
      ~reads:
        [
          Query_class.read "q1" [ fr "a" ] ~weight:0.5;
          Query_class.read "q2" [ fr "b" ] ~weight:0.5;
        ]
      ~updates:[]
  in
  let a1 = Greedy.allocate w (Backend.homogeneous 2) in
  let a2 = Greedy.allocate w (Backend.homogeneous 2) in
  let merged = Segmented.merge w [ a1; a2 ] in
  Alcotest.(check bool) "valid" true (Allocation.validate merged = Ok ());
  Alcotest.(check bool) "balanced" true (Gen.load_deviation merged < 0.05)

(* ---------------- memetic local search ---------------- *)

let test_local_search_improves_bad_allocation () =
  (* Start from a deliberately bad allocation: everything on one backend of
     two.  Local search plus mutation must strictly improve it. *)
  let w =
    Workload.normalize
      (Workload.make
         ~reads:
           [
             Query_class.read "q1" [ fr "a" ] ~weight:0.5;
             Query_class.read "q2" [ fr "b" ] ~weight:0.5;
           ]
         ~updates:[])
  in
  let bad = Allocation.create w (Backend.homogeneous 2) in
  List.iter
    (fun c ->
      Allocation.add_fragments bad 0 c.Query_class.fragments;
      Allocation.set_assign bad 0 c c.Query_class.weight)
    w.Workload.reads;
  Alcotest.(check (float 1e-9)) "bad scale" 2. (Allocation.scale bad);
  let improved =
    Memetic.improve
      ~params:{ Memetic.default_params with Memetic.iterations = 25 }
      ~rng:(Cdbs_util.Rng.create 5) bad
  in
  Alcotest.(check (float 1e-6)) "balanced after improvement" 1.
    (Allocation.scale improved)

let test_local_search_drops_replicated_update () =
  (* Two read classes both split across two backends with different update
     sets: strategy 1 consolidates and removes update replication. *)
  let w =
    Workload.normalize
      (Workload.make
         ~reads:
           [
             Query_class.read "q1" [ fr "a" ] ~weight:0.4;
             Query_class.read "q2" [ fr "b" ] ~weight:0.4;
           ]
         ~updates:
           [
             Query_class.update "u1" [ fr "a" ] ~weight:0.1;
             Query_class.update "u2" [ fr "b" ] ~weight:0.1;
           ])
  in
  let alloc = Allocation.create w (Backend.homogeneous 2) in
  (* Both classes split 50/50 across both backends: both updates pinned on
     both nodes. *)
  List.iter
    (fun c ->
      for b = 0 to 1 do
        Allocation.add_fragments alloc b c.Query_class.fragments;
        Allocation.set_assign alloc b c (c.Query_class.weight /. 2.)
      done)
    w.Workload.reads;
  Allocation.ensure_update_closure alloc;
  let before = Allocation.scale alloc in
  let searched, changed = Memetic.local_search alloc in
  Alcotest.(check bool) "improved" true changed;
  Alcotest.(check bool) "scale reduced" true
    (Allocation.scale searched < before);
  Alcotest.(check bool) "valid" true (Allocation.validate searched = Ok ())

let test_add_fragments_rejects_outside_fragment () =
  (* The compiled workload numbers only the fragments its classes
     reference; a test plants anything else through Gen.plant. *)
  let w =
    Workload.normalize
      (Workload.make
         ~reads:
           [
             Query_class.read "q1" [ fr "a" ] ~weight:0.5;
             Query_class.read "q2" [ fr "b" ] ~weight:0.5;
           ]
         ~updates:[])
  in
  let alloc = Greedy.allocate w (Backend.homogeneous 2) in
  Alcotest.check_raises "add_fragments"
    (Invalid_argument "Allocation.add_fragments: z is outside the workload")
    (fun () ->
      Allocation.add_fragments alloc 1 (Fragment.Set.singleton (fr "z")))

let test_optimal_coarsen_preserves_problem () =
  let w =
    Workload.normalize
      (Workload.make
         ~reads:
           [
             (* a and b always co-accessed: they merge into one compound
                fragment. *)
             Query_class.read "q1" [ fr "a"; fr "b" ] ~weight:0.6;
             Query_class.read "q2" [ fr "a"; fr "b"; fr "c" ] ~weight:0.4;
           ]
         ~updates:[])
  in
  let coarse = Optimal.coarsen w in
  Alcotest.(check int) "two compound fragments" 2
    (Fragment.Set.cardinal (Workload.fragments coarse));
  Alcotest.(check (float 1e-9)) "total size preserved"
    (Fragment.set_size (Workload.fragments w))
    (Fragment.set_size (Workload.fragments coarse));
  (* Optima agree on the 2-backend instance. *)
  match
    ( Optimal.allocate w (Backend.homogeneous 2),
      Optimal.allocate coarse (Backend.homogeneous 2) )
  with
  | Ok r1, Ok r2 ->
      Alcotest.(check (float 1e-6)) "same scale" r1.Optimal.scale r2.Optimal.scale;
      Alcotest.(check (float 1e-6)) "same space" r1.Optimal.space r2.Optimal.space
  | _ -> Alcotest.fail "optimal failed"

let suite =
  [
    Alcotest.test_case "segmentation finds the flip" `Quick
      test_segmentation_finds_flip;
    Alcotest.test_case "stable journal stays whole" `Quick
      test_segmentation_stable_journal;
    Alcotest.test_case "segmented allocation covers all phases" `Quick
      test_segmented_allocation_serves_both_phases;
    Alcotest.test_case "merge balances" `Quick test_merge_balances;
    Alcotest.test_case "memetic improves a bad allocation" `Quick
      test_local_search_improves_bad_allocation;
    Alcotest.test_case "local search drops replicated updates" `Quick
      test_local_search_drops_replicated_update;
    Alcotest.test_case "add_fragments rejects an outside fragment" `Quick
      test_add_fragments_rejects_outside_fragment;
    Alcotest.test_case "coarsen preserves the MIP" `Quick
      test_optimal_coarsen_preserves_problem;
  ]
