(* K-safety (Appendix C): class replication, failover, fragment-level
   redundancy, robustness extensions. *)

open Cdbs_core

let fr ?(size = 1.) name = Fragment.table name ~size

let workload () =
  Workload.make
    ~reads:
      [
        Query_class.read "q1" [ fr "a" ] ~weight:0.4;
        Query_class.read "q2" [ fr "b" ] ~weight:0.25;
        Query_class.read "q3" [ fr "c" ] ~weight:0.15;
      ]
    ~updates:
      [
        Query_class.update "u1" [ fr "a" ] ~weight:0.12;
        Query_class.update "u2" [ fr "d" ] ~weight:0.08;
      ]

let test_k1_allocation () =
  let alloc = Ksafety.allocate ~k:1 (workload ()) (Backend.homogeneous 4) in
  Alcotest.(check bool) "1-safe" true (Ksafety.is_k_safe ~k:1 alloc);
  Alcotest.(check bool) "valid" true (Allocation.validate alloc = Ok ());
  Alcotest.(check bool) "fragments >= 2 copies" true
    (Replication.min_replicas alloc >= 2)

let test_k2_allocation () =
  let alloc = Ksafety.allocate ~k:2 (workload ()) (Backend.homogeneous 5) in
  Alcotest.(check bool) "2-safe" true (Ksafety.is_k_safe ~k:2 alloc);
  Alcotest.(check bool) "fragments >= 3 copies" true
    (Replication.min_replicas alloc >= 3)

let test_k_exceeds_backends () =
  match Ksafety.allocate ~k:4 (workload ()) (Backend.homogeneous 3) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k+1 > backends should be rejected"

let test_survives_all_single_failures () =
  let alloc = Ksafety.allocate ~k:1 (workload ()) (Backend.homogeneous 4) in
  for b = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "survives loss of B%d" (b + 1))
      true
      (Ksafety.survives alloc ~failed:[ b ])
  done

let test_greedy_not_necessarily_safe () =
  (* The plain greedy allocation usually leaves some class on one backend. *)
  let alloc = Greedy.allocate (workload ()) (Backend.homogeneous 4) in
  Alcotest.(check bool) "not 1-safe" false (Ksafety.is_k_safe ~k:1 alloc)

let test_ksafety_increases_update_cost () =
  let w = workload () in
  let plain = Greedy.allocate w (Backend.homogeneous 4) in
  let safe = Ksafety.allocate ~k:1 w (Backend.homogeneous 4) in
  (* Replicated update classes add work: scale can only grow. *)
  Alcotest.(check bool) "scale grows" true
    (Allocation.scale safe >= Allocation.scale plain -. 1e-9);
  Alcotest.(check bool) "storage grows" true
    (Allocation.total_stored safe > Allocation.total_stored plain)

(* ---------------- robustness (Sec. 5) ---------------- *)

let test_shiftable_weight () =
  let w = workload () in
  let alloc = Baselines.full_replication w (Backend.homogeneous 3) in
  (* Fully replicated: every read class can shift anywhere. *)
  let total_reads =
    List.fold_left
      (fun acc c -> acc +. c.Query_class.weight)
      0. w.Workload.reads
  in
  Alcotest.(check (float 1e-6)) "everything shiftable"
    (total_reads /. 3.)
    (Robustness.shiftable_weight alloc 0)

let test_harden () =
  let w = workload () in
  let alloc = Greedy.allocate w (Backend.homogeneous 4) in
  Robustness.harden alloc ~tolerance:0.10;
  Alcotest.(check bool) "robust after hardening" true
    (Robustness.is_robust alloc ~tolerance:0.10);
  Alcotest.(check bool) "still valid" true (Allocation.validate alloc = Ok ())

(* Property: k-safe allocations survive every single failure and stay
   valid, over random workloads. *)
let prop_k1_survives =
  QCheck.Test.make ~count:100 ~name:"k=1 allocations survive any single loss"
    Gen.scenario_arbitrary (fun (w, backends) ->
      let n = List.length backends in
      if n < 2 then true
      else
        let alloc = Ksafety.allocate ~k:1 w backends in
        Allocation.validate alloc = Ok ()
        && List.for_all
             (fun b -> Ksafety.survives alloc ~failed:[ b ])
             (List.init n (fun b -> b)))

let suite =
  [
    Alcotest.test_case "k=1 allocation" `Quick test_k1_allocation;
    Alcotest.test_case "k=2 allocation" `Quick test_k2_allocation;
    Alcotest.test_case "k too large rejected" `Quick test_k_exceeds_backends;
    Alcotest.test_case "survives single failures" `Quick
      test_survives_all_single_failures;
    Alcotest.test_case "plain greedy is not 1-safe" `Quick
      test_greedy_not_necessarily_safe;
    Alcotest.test_case "k-safety costs scale and storage" `Quick
      test_ksafety_increases_update_cost;
    Alcotest.test_case "robustness: shiftable weight" `Quick
      test_shiftable_weight;
    Alcotest.test_case "robustness: harden" `Quick test_harden;
    QCheck_alcotest.to_alcotest prop_k1_survives;
  ]

(* ---------------- failure injection in the simulator ---------------- *)

let test_simulated_failover () =
  let w = workload () in
  let backends = Backend.homogeneous 4 in
  let safe = Ksafety.allocate ~k:1 w backends in
  (* Random placement puts each class on exactly one backend — the layout a
     failure can orphan (greedy may split classes while balancing). *)
  let plain =
    Baselines.random_placement ~rng:(Cdbs_util.Rng.create 2) w backends
  in
  let requests =
    List.init 200 (fun i ->
        let arrival = float_of_int i *. 0.05 in
        if i mod 5 = 0 then
          Cdbs_cluster.Request.update ~arrival ~cost_mb:0.5 "u1"
        else Cdbs_cluster.Request.read ~arrival ~cost_mb:0.5 "q3")
  in
  let run alloc =
    (Cdbs_cluster.Simulator.run_open_with_faults
       (Cdbs_cluster.Simulator.homogeneous_config 4)
       alloc requests
       ~faults:[ Cdbs_faults.Fault.crash ~at:4.0 0 ])
      .Cdbs_cluster.Simulator.run
  in
  let safe_outcome = run safe in
  Alcotest.(check int) "k=1 keeps serving everything" 0
    safe_outcome.Cdbs_cluster.Simulator.errors;
  Alcotest.(check int) "all requests completed" 200
    safe_outcome.Cdbs_cluster.Simulator.completed;
  (* q3 lives on exactly one backend of the unsafe allocation; failing
     that backend must orphan its requests. *)
  let some_failure_breaks_plain =
    List.exists
      (fun b ->
        let outcome =
          (Cdbs_cluster.Simulator.run_open_with_faults
             (Cdbs_cluster.Simulator.homogeneous_config 4)
             plain requests
             ~faults:[ Cdbs_faults.Fault.crash ~at:4.0 b ])
            .Cdbs_cluster.Simulator.run
        in
        outcome.Cdbs_cluster.Simulator.errors > 0)
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check bool) "some failure breaks the unsafe allocation" true
    some_failure_breaks_plain

let suite =
  suite
  @ [
      Alcotest.test_case "simulated failover (k=1 vs k=0)" `Quick
        test_simulated_failover;
    ]
