(* Cluster layer: cost model, scheduler, simulator, controller. *)

open Cdbs_core
module Cost_model = Cdbs_cluster.Cost_model
module Scheduler = Cdbs_cluster.Scheduler
module Simulator = Cdbs_cluster.Simulator
module Request = Cdbs_cluster.Request
module Controller = Cdbs_cluster.Controller

let fr ?(size = 1.) name = Fragment.table name ~size

let workload () =
  Workload.make
    ~reads:
      [
        Query_class.read "q1" [ fr "a" ] ~weight:0.5;
        Query_class.read "q2" [ fr "b" ] ~weight:0.3;
      ]
    ~updates:[ Query_class.update "u1" [ fr "a" ] ~weight:0.2 ]

(* ---------------- cost model ---------------- *)

let test_cache_factor () =
  let p = { Cost_model.default with Cost_model.cache_mb = 100.; cold_penalty = 2. } in
  Alcotest.(check (float 1e-9)) "fits in cache" 1.
    (Cost_model.cache_factor p ~resident_mb:50.);
  Alcotest.(check (float 1e-9)) "half spilled" 1.5
    (Cost_model.cache_factor p ~resident_mb:200.)

let test_service_time_scaling () =
  let p = Cost_model.default in
  let t1 =
    Cost_model.service_time p ~class_mb:10. ~resident_mb:10. ~speed:1.
      ~is_update:false ~replicas:1
  in
  let t2 =
    Cost_model.service_time p ~class_mb:10. ~resident_mb:10. ~speed:2.
      ~is_update:false ~replicas:1
  in
  Alcotest.(check (float 1e-9)) "speed halves time" (t1 /. 2.) t2;
  let u1 =
    Cost_model.service_time p ~class_mb:10. ~resident_mb:10. ~speed:1.
      ~is_update:true ~replicas:1
  in
  let u10 =
    Cost_model.service_time p ~class_mb:10. ~resident_mb:10. ~speed:1.
      ~is_update:true ~replicas:10
  in
  Alcotest.(check bool) "sync overhead grows with replicas" true (u10 > u1)

(* ---------------- scheduler ---------------- *)

let test_scheduler_least_pending () =
  let alloc = Baselines.full_replication (workload ()) (Backend.homogeneous 3) in
  let sched = Scheduler.create alloc in
  Scheduler.book sched ~backend:0 ~finish:10.;
  Scheduler.book sched ~backend:1 ~finish:5.;
  (* Backend 2 is idle: reads must go there. *)
  match Scheduler.route sched ~now:0. (Request.read "q1") with
  | Ok [ 2 ] -> ()
  | Ok other ->
      Alcotest.failf "expected backend 2, got %s"
        (String.concat "," (List.map string_of_int other))
  | Error e -> Alcotest.fail e

let test_scheduler_rowa () =
  let alloc = Baselines.full_replication (workload ()) (Backend.homogeneous 3) in
  let sched = Scheduler.create alloc in
  match Scheduler.route sched ~now:0. (Request.update "u1") with
  | Ok targets -> Alcotest.(check int) "all three backends" 3 (List.length targets)
  | Error e -> Alcotest.fail e

let test_scheduler_partial_rowa () =
  (* With a greedy partial allocation, u1 goes only to backends holding
     fragment a. *)
  let alloc = Greedy.allocate (workload ()) (Backend.homogeneous 3) in
  let sched = Scheduler.create alloc in
  match Scheduler.route sched ~now:0. (Request.update "u1") with
  | Ok targets ->
      List.iter
        (fun b ->
          Alcotest.(check bool) "target holds a" true
            (Fragment.Set.mem (fr "a") (Allocation.fragments_of alloc b)))
        targets
  | Error e -> Alcotest.fail e

let test_scheduler_unknown_class () =
  let alloc = Greedy.allocate (workload ()) (Backend.homogeneous 2) in
  let sched = Scheduler.create alloc in
  match Scheduler.route sched ~now:0. (Request.read "nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown class routed"

(* ---------------- simulator ---------------- *)

let test_simulator_completes_everything () =
  let alloc = Greedy.allocate (workload ()) (Backend.homogeneous 2) in
  let config = Simulator.homogeneous_config 2 in
  let reqs =
    List.concat
      (List.init 50 (fun _ ->
           [ Request.read "q1"; Request.read "q2"; Request.update "u1" ]))
  in
  let outcome = Simulator.run_batch config alloc reqs in
  Alcotest.(check int) "all completed" 150 outcome.Simulator.completed;
  Alcotest.(check int) "no errors" 0 outcome.Simulator.errors;
  Alcotest.(check bool) "positive throughput" true
    (outcome.Simulator.throughput > 0.)

let test_simulator_read_scaling () =
  (* Read-only work on n backends is ~n times faster. *)
  let w =
    Workload.make
      ~reads:[ Query_class.read "q1" [ fr "a" ] ~weight:1. ]
      ~updates:[]
  in
  let reqs = List.init 300 (fun _ -> Request.read ~cost_mb:1. "q1") in
  let tp n =
    let alloc = Baselines.full_replication w (Backend.homogeneous n) in
    (Simulator.run_batch (Simulator.homogeneous_config n) alloc reqs)
      .Simulator.throughput
  in
  let t1 = tp 1 and t3 = tp 3 in
  Alcotest.(check bool) "3 nodes ~3x" true (t3 /. t1 > 2.8 && t3 /. t1 < 3.2)

let test_simulator_update_limits () =
  (* Update-heavy full replication does not scale (Amdahl). *)
  let w =
    Workload.make
      ~reads:[ Query_class.read "q1" [ fr "a" ] ~weight:0.5 ]
      ~updates:[ Query_class.update "u1" [ fr "a" ] ~weight:0.5 ]
  in
  let reqs =
    List.concat
      (List.init 150 (fun _ ->
           [ Request.read ~cost_mb:1. "q1"; Request.update ~cost_mb:1. "u1" ]))
  in
  let tp n =
    let alloc = Baselines.full_replication w (Backend.homogeneous n) in
    (Simulator.run_batch (Simulator.homogeneous_config n) alloc reqs)
      .Simulator.throughput
  in
  let s4 = tp 4 /. tp 1 in
  (* Amdahl with serial = 0.5 caps at 1.6 on 4 nodes. *)
  Alcotest.(check bool) "speedup below 1.8" true (s4 < 1.8)

let test_simulator_open_arrivals () =
  let alloc = Greedy.allocate (workload ()) (Backend.homogeneous 2) in
  let config = Simulator.homogeneous_config 2 in
  let reqs =
    List.init 20 (fun i ->
        Request.read ~arrival:(float_of_int i) ~cost_mb:0.1 "q1")
  in
  let outcome = Simulator.run_open config alloc reqs in
  (* Arrivals are spread out: no queueing, response equals service time. *)
  Alcotest.(check bool) "short responses" true
    (outcome.Simulator.avg_response < 0.05);
  Alcotest.(check bool) "makespan spans arrivals" true
    (outcome.Simulator.makespan >= 19.)

let test_simulator_unsorted_arrivals () =
  (* The same open-mode trace must simulate identically no matter how the
     request list is ordered: [run_open] sorts by arrival itself. *)
  let alloc = Greedy.allocate (workload ()) (Backend.homogeneous 2) in
  let config = Simulator.homogeneous_config 2 in
  let reqs =
    List.init 30 (fun i ->
        Request.read ~arrival:(float_of_int i *. 0.7) ~cost_mb:0.5 "q1")
  in
  let shuffled =
    (* Deterministic scramble: odd arrivals first, then evens reversed. *)
    List.filteri (fun i _ -> i mod 2 = 1) reqs
    @ List.rev (List.filteri (fun i _ -> i mod 2 = 0) reqs)
  in
  let a = Simulator.run_open config alloc reqs in
  let b = Simulator.run_open config alloc shuffled in
  Alcotest.(check (float 1e-9)) "same avg response" a.Simulator.avg_response
    b.Simulator.avg_response;
  Alcotest.(check (float 1e-9)) "same makespan" a.Simulator.makespan
    b.Simulator.makespan;
  Alcotest.(check int) "same errors" a.Simulator.errors b.Simulator.errors

(* ---------------- response percentiles ---------------- *)

module Stats = Cdbs_util.Stats

(* The naive nearest-rank definition the shared helper must reproduce:
   sort with polymorphic [compare], take rank [ceil (q * n) - 1]. *)
let naive_percentile q xs =
  let sorted = List.sort compare xs in
  let n = List.length sorted in
  let rank = int_of_float (ceil (q /. 100. *. float_of_int n)) - 1 in
  List.nth sorted (max 0 rank)

let samples_arbitrary =
  (* Lattice values repeat often; the specials cover the edges of the
     float order (signed zeros, infinities, nan). *)
  let value =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun k -> float_of_int k /. 4.) (int_range (-40) 40));
          (2, float);
          (1, oneofl [ 0.; -0.; infinity; neg_infinity; nan ]);
        ])
  in
  QCheck.make
    ~print:QCheck.Print.(list float)
    QCheck.Gen.(list_size (int_range 1 500) value)

let prop_nearest_rank_matches_naive =
  QCheck.Test.make ~count:300 ~name:"nearest-rank helper = naive sort + nth"
    samples_arbitrary (fun xs ->
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let p = Stats.nearest_rank (Array.of_list xs) in
      List.for_all
        (fun q ->
          let want = naive_percentile q xs in
          same (p q) want && same (Stats.percentile q xs) want)
        [ 0.; 50.; 95.; 99.; 100. ])

let test_percentiles_empty () =
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "Stats.percentile raises on []" true
    (raises (fun () -> Stats.percentile 50. []));
  Alcotest.(check bool) "nearest_rank raises on an empty sample" true
    (raises (fun () -> Stats.nearest_rank [||] 50.));
  (* With no responses every simulator loop reports zero percentiles. *)
  let alloc = Greedy.allocate (workload ()) (Backend.homogeneous 2) in
  let config = Simulator.homogeneous_config 2 in
  let zeros (o : Simulator.outcome) =
    Alcotest.(check (list (float 0.))) "p50/p95/p99" [ 0.; 0.; 0. ]
      [ o.Simulator.p50_response; o.Simulator.p95_response;
        o.Simulator.p99_response ]
  in
  zeros (Simulator.run_open config alloc []);
  zeros (Simulator.run_batch config alloc []);
  zeros (Simulator.run_open_with_faults config alloc [] ~faults:[]).Simulator.run

(* ---------------- controller ---------------- *)

let schema : Cdbs_storage.Schema.t =
  [
    Cdbs_storage.Schema.table "t" ~primary_key:[ "id" ]
      [ ("id", Cdbs_storage.Schema.T_int); ("v", Cdbs_storage.Schema.T_int) ];
    Cdbs_storage.Schema.table "u" ~primary_key:[ "id" ]
      [ ("id", Cdbs_storage.Schema.T_int); ("w", Cdbs_storage.Schema.T_int) ];
  ]

let test_controller_end_to_end () =
  let c =
    Controller.create ~schema ~rows:[ ("t", 100); ("u", 50) ] ~backends:2
      ~seed:3
  in
  (* Reads route and execute. *)
  (match Controller.submit c "SELECT id FROM t WHERE v >= 0" with
  | Ok (Cdbs_storage.Executor.Rows _) -> ()
  | Ok _ -> Alcotest.fail "expected rows"
  | Error e -> Alcotest.fail e);
  (* Updates hit every backend: check by updating then reading back. *)
  (match Controller.submit c "UPDATE t SET v = 7 WHERE id = 1" with
  | Ok (Cdbs_storage.Executor.Affected 1) -> ()
  | Ok _ -> Alcotest.fail "expected one row affected"
  | Error e -> Alcotest.fail e);
  for _ = 1 to 20 do
    ignore (Controller.submit c "SELECT id FROM t WHERE v = 7")
  done;
  let processed, _ = Controller.stats c in
  Alcotest.(check int) "journal grew" 22 processed;
  Alcotest.(check int) "journal length" 22
    (Journal.length (Controller.journal c))

let test_controller_reallocate () =
  let c =
    Controller.create ~schema ~rows:[ ("t", 200); ("u", 200) ] ~backends:2
      ~seed:3
  in
  (* t-heavy workload: after reallocation the backends should specialize. *)
  for _ = 1 to 30 do
    ignore (Controller.submit c "SELECT id FROM t WHERE v > 10")
  done;
  for _ = 1 to 10 do
    ignore (Controller.submit c "SELECT id FROM u WHERE w > 10")
  done;
  (match Controller.reallocate c ~iterations:10 () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Controller.allocation c with
  | Some alloc ->
      Alcotest.(check bool) "valid" true (Allocation.validate alloc = Ok ())
  | None -> Alcotest.fail "no allocation");
  (* Every statement still answerable. *)
  (match Controller.submit c "SELECT id FROM u WHERE w > 10" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match Controller.submit c "SELECT id FROM t WHERE v > 10" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_controller_empty_journal () =
  let c =
    Controller.create ~schema ~rows:[ ("t", 10) ] ~backends:2 ~seed:1
  in
  match Controller.reallocate c () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reallocation with empty history accepted"

(* ---------------- per-request kernels vs references ---------------- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Floats that [Float.compare] ties although their bits differ (both zeros,
   NaNs with different payloads and signs), infinities, and lattice values
   that repeat. *)
let tied_samples =
  let nan_with payload ~negative =
    Int64.float_of_bits
      (Int64.logor
         (if negative then 0xFFF0000000000000L else 0x7FF0000000000000L)
         (Int64.of_int (1 + payload)))
  in
  let value =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun k -> float_of_int k /. 2.) (int_range (-6) 6));
          (2, float);
          (2, oneofl [ 0.; -0.; infinity; neg_infinity ]);
          ( 1,
            map2
              (fun payload negative -> nan_with payload ~negative)
              (int_range 0 0xFFFF) bool );
        ])
  in
  QCheck.make
    ~print:QCheck.Print.(pair (list float) float)
    QCheck.Gen.(pair (list_size (int_range 1 400) value) (float_range 0. 100.))

let prop_nearest_rank_bits =
  QCheck.Test.make ~count:500
    ~name:"nearest_rank = Array.stable_sort Float.compare, bit for bit"
    tied_samples (fun (xs, p_random) ->
      let a = Array.of_list xs in
      let sorted = Array.copy a in
      Array.stable_sort Float.compare sorted;
      let n = Array.length a in
      let want p =
        let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
        sorted.(max 0 (min (n - 1) rank))
      in
      let q = Stats.nearest_rank a in
      let ps = [ 0.; 1.; 50.; 95.; 99.; 100.; p_random ] in
      (* Each query reorders the working copy; ask twice, in both orders. *)
      List.for_all (fun p -> same_bits (q p) (want p)) (ps @ List.rev ps))

(* The list-based read routing that [best_read_target] replaced, kept here
   as the reference: the base set (assigned backends, else holders; live
   sets in dynamic mode), the fail-open health filter, then the first
   least-pending candidate other than [exclude].  Also returns the
   backends the filter must be asked about, in first-call order. *)
let reference_read ~dynamic ~live ~healthy ~exclude sched alloc c ~now =
  let n = Scheduler.num_nodes sched in
  let all = List.init n Fun.id in
  let capable b =
    Scheduler.is_up sched ~backend:b
    && not (Scheduler.is_stale sched ~backend:b)
  in
  let base =
    if dynamic then
      List.filter
        (fun b ->
          capable b && Fragment.Set.subset c.Query_class.fragments live.(b))
        all
    else
      let assigned =
        List.filter
          (fun b -> capable b && Allocation.get_assign alloc b c > 0.)
          all
      in
      if assigned <> [] then assigned
      else List.filter (fun b -> capable b && Allocation.holds alloc b c) all
  in
  let healthy_base = List.filter healthy base in
  let candidates = if healthy_base = [] then base else healthy_base in
  (* Asked in backend order up to the first healthy member, then about
     every candidate the selection tests. *)
  let asked =
    match healthy_base with
    | [] -> base
    | h :: _ -> List.filter (fun b -> b <= h || b <> exclude) base
  in
  let best =
    List.fold_left
      (fun acc b ->
        if b = exclude then acc
        else
          match acc with
          | Some cur
            when not
                   (Scheduler.pending sched ~backend:b ~now
                   < Scheduler.pending sched ~backend:cur ~now) ->
              acc
          | _ -> Some b)
      None candidates
  in
  (candidates, best, asked)

let routing_workload =
  Workload.make
    ~reads:
      [
        Query_class.read "q1" [ fr "a" ] ~weight:0.2;
        Query_class.read "q2" [ fr "b" ] ~weight:0.2;
        Query_class.read "q3" [ fr "a"; fr "b" ] ~weight:0.1;
        Query_class.read "q4" [ fr "c" ] ~weight:0.2;
        Query_class.read "q5" [ fr "c"; fr "d" ] ~weight:0.1;
      ]
    ~updates:
      [
        Query_class.update "u1" [ fr "a" ] ~weight:0.1;
        Query_class.update "u2" [ fr "d" ] ~weight:0.1;
      ]

let prop_best_read_target_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"best_read_target = list-based reference, route and eligible_for_read"
    QCheck.small_nat (fun seed ->
      let rs = Random.State.make [| seed |] in
      let n = 3 + Random.State.int rs 3 in
      let w = routing_workload in
      let alloc =
        let backends = Backend.homogeneous n in
        if Random.State.bool rs then Ksafety.allocate ~k:1 w backends
        else Greedy.allocate w backends
      in
      let dynamic = Random.State.int rs 4 = 0 in
      let frags = Fragment.Set.elements (Workload.fragments w) in
      let live =
        if dynamic then
          Array.init (n + Random.State.int rs 2) (fun _ ->
              Fragment.Set.of_list
                (List.filter (fun _ -> Random.State.int rs 3 > 0) frags))
        else Array.init n (Allocation.fragments_of alloc)
      in
      let sched =
        if dynamic then Scheduler.create_dynamic alloc ~live
        else Scheduler.create alloc
      in
      let nodes = Scheduler.num_nodes sched in
      for b = 0 to nodes - 1 do
        (match Random.State.int rs 5 with
        | 0 -> Scheduler.set_down sched ~backend:b
        | 1 -> Scheduler.set_up ~stale:true sched ~backend:b
        | _ -> ());
        Scheduler.book sched ~backend:b
          ~finish:(float_of_int (Random.State.int rs 5) /. 2.)
      done;
      let ok = Array.init nodes (fun _ -> Random.State.int rs 3 > 0) in
      let now = float_of_int (Random.State.int rs 3) /. 2. in
      let classes = Allocation.classes alloc in
      let agree k =
        let c = classes.(k) in
        List.for_all
          (fun exclude ->
            let asked = ref [] in
            let healthy b =
              if not (List.mem b !asked) then asked := b :: !asked;
              ok.(b)
            in
            let got =
              Scheduler.best_read_target ~healthy ~exclude sched ~now k
            in
            let candidates, want, want_asked =
              reference_read ~dynamic ~live ~healthy:(fun b -> ok.(b)) ~exclude
                sched alloc c ~now
            in
            let routed =
              match
                Scheduler.route ~healthy:(fun b -> ok.(b)) sched ~now
                  (Request.read c.Query_class.id)
              with
              | Ok [ b ] -> Some b
              | Ok _ | Error _ -> None
            in
            got = want
            && List.rev !asked = want_asked
            && (exclude >= 0
               || routed = want
                  && Scheduler.best_read_target sched ~now k
                     = (let _, b, _ =
                          reference_read ~dynamic ~live
                            ~healthy:(fun _ -> true) ~exclude sched alloc c ~now
                        in
                        b)
                  && Scheduler.eligible_for_read ~healthy:(fun b -> ok.(b))
                       sched c
                     = candidates))
          (-1 :: List.init nodes Fun.id)
      in
      List.for_all agree (List.init (Allocation.num_reads alloc) Fun.id))

let suite =
  [
    Alcotest.test_case "cost model: cache factor" `Quick test_cache_factor;
    Alcotest.test_case "cost model: service time" `Quick
      test_service_time_scaling;
    Alcotest.test_case "scheduler: least pending first" `Quick
      test_scheduler_least_pending;
    Alcotest.test_case "scheduler: ROWA fan-out" `Quick test_scheduler_rowa;
    Alcotest.test_case "scheduler: partial ROWA" `Quick
      test_scheduler_partial_rowa;
    Alcotest.test_case "scheduler: unknown class" `Quick
      test_scheduler_unknown_class;
    Alcotest.test_case "simulator: completes all requests" `Quick
      test_simulator_completes_everything;
    Alcotest.test_case "simulator: read-only scales linearly" `Quick
      test_simulator_read_scaling;
    Alcotest.test_case "simulator: updates cap speedup" `Quick
      test_simulator_update_limits;
    Alcotest.test_case "simulator: open arrivals" `Quick
      test_simulator_open_arrivals;
    Alcotest.test_case "simulator: unsorted arrivals" `Quick
      test_simulator_unsorted_arrivals;
    QCheck_alcotest.to_alcotest prop_nearest_rank_matches_naive;
    Alcotest.test_case "percentiles: empty samples" `Quick
      test_percentiles_empty;
    Alcotest.test_case "controller: end to end" `Quick
      test_controller_end_to_end;
    Alcotest.test_case "controller: reallocation" `Quick
      test_controller_reallocate;
    Alcotest.test_case "controller: empty journal" `Quick
      test_controller_empty_journal;
    QCheck_alcotest.to_alcotest prop_nearest_rank_bits;
    QCheck_alcotest.to_alcotest prop_best_read_target_matches_reference;
  ]
