(* Update-propagation protocols (Sec. 2 extensions). *)

open Cdbs_core
module Protocol = Cdbs_cluster.Protocol
module Simulator = Cdbs_cluster.Simulator
module Request = Cdbs_cluster.Request

let fr name = Fragment.table name ~size:1.

let workload () =
  Workload.make
    ~reads:[ Query_class.read "q" [ fr "a" ] ~weight:0.5 ]
    ~updates:[ Query_class.update "u" [ fr "a" ] ~weight:0.5 ]

let requests n =
  List.concat
    (List.init n (fun _ ->
         [ Request.read ~cost_mb:1. "q"; Request.update ~cost_mb:1. "u" ]))

let run protocol n_backends =
  let alloc =
    Baselines.full_replication (workload ()) (Backend.homogeneous n_backends)
  in
  let config = { (Simulator.homogeneous_config n_backends) with protocol } in
  Simulator.run_batch config alloc (requests 100)

let test_plan_rowa () =
  let split = Protocol.plan Protocol.Rowa ~targets:[ 0; 1; 2 ] in
  Alcotest.(check (list int)) "all sync" [ 0; 1; 2 ] split.Protocol.sync;
  Alcotest.(check int) "no async" 0 (List.length split.Protocol.async)

let test_plan_primary_copy () =
  let split = Protocol.plan Protocol.Primary_copy ~targets:[ 2; 0; 1 ] in
  Alcotest.(check (list int)) "primary only" [ 2 ] split.Protocol.sync;
  Alcotest.(check int) "two followers" 2 (List.length split.Protocol.async);
  List.iter
    (fun (_, f) -> Alcotest.(check (float 1e-9)) "full apply" 1. f)
    split.Protocol.async

let test_plan_lazy_factor () =
  let split =
    Protocol.plan (Protocol.Lazy { apply_factor = 0.25 }) ~targets:[ 0; 1 ]
  in
  match split.Protocol.async with
  | [ (1, 0.25) ] -> ()
  | _ -> Alcotest.fail "lazy follower factor wrong"

let test_plan_empty_targets () =
  match Protocol.plan Protocol.Rowa ~targets:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty targets accepted"

let test_primary_copy_improves_response () =
  let rowa = run Protocol.Rowa 4 in
  let pc = run Protocol.Primary_copy 4 in
  Alcotest.(check bool) "primary copy responds faster" true
    (pc.Simulator.avg_response < rowa.Simulator.avg_response);
  (* Both apply the update everywhere: same total busy time. *)
  let total o = Array.fold_left ( +. ) 0. o.Simulator.busy in
  Alcotest.(check bool) "similar total work" true
    (abs_float (total pc -. total rowa) /. total rowa < 0.15)

let test_lazy_reduces_replica_work () =
  let rowa = run Protocol.Rowa 4 in
  let lazy_ = run (Protocol.Lazy { apply_factor = 0.2 }) 4 in
  let total o = Array.fold_left ( +. ) 0. o.Simulator.busy in
  Alcotest.(check bool) "lazy does less work" true
    (total lazy_ < total rowa);
  Alcotest.(check bool) "lazy is faster" true
    (lazy_.Simulator.throughput > rowa.Simulator.throughput)

let test_reads_unaffected () =
  (* A read-only stream behaves identically under every protocol. *)
  let reads = List.init 100 (fun _ -> Request.read ~cost_mb:1. "q") in
  let alloc =
    Baselines.full_replication (workload ()) (Backend.homogeneous 3)
  in
  let tp p =
    let config = { (Simulator.homogeneous_config 3) with protocol = p } in
    (Simulator.run_batch config alloc reads).Simulator.throughput
  in
  let a = tp Protocol.Rowa and b = tp Protocol.Primary_copy in
  Alcotest.(check (float 1e-9)) "identical" a b

let suite =
  [
    Alcotest.test_case "plan: rowa" `Quick test_plan_rowa;
    Alcotest.test_case "plan: primary copy" `Quick test_plan_primary_copy;
    Alcotest.test_case "plan: lazy factor" `Quick test_plan_lazy_factor;
    Alcotest.test_case "plan: empty targets" `Quick test_plan_empty_targets;
    Alcotest.test_case "primary copy improves response" `Quick
      test_primary_copy_improves_response;
    Alcotest.test_case "lazy reduces replica work" `Quick
      test_lazy_reduces_replica_work;
    Alcotest.test_case "reads unaffected" `Quick test_reads_unaffected;
  ]
