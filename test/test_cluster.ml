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

let position sched id = Option.get (Scheduler.class_position sched id)

let test_scheduler_least_pending () =
  let alloc = Baselines.full_replication (workload ()) (Backend.homogeneous 3) in
  let sched = Scheduler.create alloc in
  Scheduler.book sched ~backend:0 ~finish:10.;
  Scheduler.book sched ~backend:1 ~finish:5.;
  (* Backend 2 is idle: reads must go there. *)
  Alcotest.(check (option int)) "idle backend 2" (Some 2)
    (Scheduler.best_read_target sched ~now:0. (position sched "q1"))

let test_scheduler_rowa () =
  let alloc = Baselines.full_replication (workload ()) (Backend.homogeneous 3) in
  let sched = Scheduler.create alloc in
  Alcotest.(check int) "all three backends" 3
    (List.length (Scheduler.targets_for_update_at sched (position sched "u1")))

let test_scheduler_partial_rowa () =
  (* With a greedy partial allocation, u1 goes only to backends holding
     fragment a. *)
  let alloc = Greedy.allocate (workload ()) (Backend.homogeneous 3) in
  let sched = Scheduler.create alloc in
  let targets = Scheduler.targets_for_update_at sched (position sched "u1") in
  Alcotest.(check bool) "some target" true (targets <> []);
  List.iter
    (fun b ->
      Alcotest.(check bool) "target holds a" true
        (Fragment.Set.mem (fr "a") (Allocation.fragments_of alloc b)))
    targets

let test_scheduler_unknown_class () =
  let alloc = Greedy.allocate (workload ()) (Backend.homogeneous 2) in
  let sched = Scheduler.create alloc in
  Alcotest.(check (option int)) "unknown class has no position" None
    (Scheduler.class_position sched "nope")

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

(* The engine's own ordering of an unsorted stream against [List.stable_sort]
   by arrival, on a saturating run where every defense acts: shed, hedge
   and breaker decisions depend on the order requests are offered in. *)
let test_fallback_order_matches_stable_sort () =
  let n = 4 in
  let alloc =
    Ksafety.allocate ~k:1
      (Cdbs_workloads.Trace.workload_at ~hour:14.)
      (Backend.homogeneous n)
  in
  let scrambled =
    (* Arrivals cut to tenths of a second tie about 35 requests each. *)
    Cdbs_experiments.Fig_overload.requests ~seed:42 ~rate_per_s:350.
      ~duration:60.
    |> List.map (fun (r : Request.t) ->
           let tenths = Float.round (r.Request.arrival *. 10.) in
           { r with Request.arrival = tenths /. 10. })
    |> Array.of_list
  in
  Cdbs_util.Rng.shuffle (Cdbs_util.Rng.create 3) scrambled;
  let unsorted = Array.to_list scrambled in
  let sorted =
    List.stable_sort
      (fun (a : Request.t) b ->
        Float.compare a.Request.arrival b.Request.arrival)
      unsorted
  in
  let run requests =
    Simulator.run_open_with_faults ~rng:(Cdbs_util.Rng.create 43)
      ~resilience:(Cdbs_experiments.Fig_overload.defenses ~deadline_s:1.)
      (Simulator.homogeneous_config n) alloc requests
      ~faults:
        [ Cdbs_faults.Fault.slowdown ~at:15. ~backend:0 ~factor:3. ~duration:30. ]
  in
  let got = run unsorted and want = run sorted in
  let counts (fo : Simulator.fault_outcome) =
    [
      fo.Simulator.offered; fo.Simulator.run.Simulator.completed;
      fo.Simulator.run.Simulator.errors; fo.Simulator.retried_requests;
      fo.Simulator.retries; fo.Simulator.aborted; fo.Simulator.timeouts;
      fo.Simulator.shed; fo.Simulator.shed_updates; fo.Simulator.hedged;
      fo.Simulator.hedge_wins; fo.Simulator.breaker_trips;
      fo.Simulator.offered_updates; fo.Simulator.completed_updates;
      fo.Simulator.max_concurrent_down; fo.Simulator.events;
      List.length fo.Simulator.recoveries;
    ]
  in
  let floats (fo : Simulator.fault_outcome) =
    let r = fo.Simulator.run in
    List.map Int64.bits_of_float
      ([
         r.Simulator.makespan; r.Simulator.throughput; r.Simulator.avg_response;
         r.Simulator.max_response; Lazy.force r.Simulator.p50_response;
         Lazy.force r.Simulator.p95_response;
         Lazy.force r.Simulator.p99_response;
         fo.Simulator.availability; fo.Simulator.wasted_work;
         fo.Simulator.cancelled_work; fo.Simulator.catch_up_mb;
       ]
      @ Array.to_list r.Simulator.busy
      @ Array.to_list r.Simulator.utilization
      @ Array.to_list fo.Simulator.downtime
      @ List.concat_map (fun (a, s) -> [ a; s ]) fo.Simulator.responses)
  in
  Alcotest.(check (list int)) "counts" (counts want) (counts got);
  Alcotest.(check (list int64)) "float bits" (floats want) (floats got);
  Alcotest.(check bool) "shed, hedged and tripped" true
    (got.Simulator.shed > 0 && got.Simulator.hedged > 0
    && got.Simulator.breaker_trips > 0)

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
      (List.map Lazy.force
         [ o.Simulator.p50_response; o.Simulator.p95_response;
           o.Simulator.p99_response ])
  in
  zeros (Simulator.run_open config alloc []);
  zeros (Simulator.run_batch config alloc []);
  zeros (Simulator.run_open_with_faults config alloc [] ~faults:[]).Simulator.run

(* The fields on demand are the nearest ranks of the completed responses,
   whichever is read first. *)
let test_percentiles_on_demand () =
  let n = 4 in
  let alloc =
    Ksafety.allocate ~k:1
      (Cdbs_workloads.Trace.workload_at ~hour:14.)
      (Backend.homogeneous n)
  in
  let fo =
    Simulator.run_open_with_faults
      (Simulator.homogeneous_config n)
      alloc
      (Cdbs_experiments.Fig_overload.requests ~seed:7 ~rate_per_s:300.
         ~duration:20.)
      ~faults:
        [ Cdbs_faults.Fault.slowdown ~at:5. ~backend:0 ~factor:3.
            ~duration:10. ]
  in
  let r = fo.Simulator.run in
  let want =
    Stats.nearest_rank
      (Array.of_list (List.map snd fo.Simulator.responses))
  in
  List.iter
    (fun (label, p, field) ->
      Alcotest.(check int64) label
        (Int64.bits_of_float (want p))
        (Int64.bits_of_float (Lazy.force field)))
    [ ("p99", 99., r.Simulator.p99_response);
      ("p50", 50., r.Simulator.p50_response);
      ("p95", 95., r.Simulator.p95_response) ]

(* ---------------- booking queue ---------------- *)

module Bookings = Cdbs_cluster.Bookings

(* A push starts [after] the current instant and lasts [len]; its owner
   is a uid or one of the two write owners. *)
type booking_op =
  | Push of { after : float; len : float; owner : int }
  | Cancel of int  (* the n-th live booking, newest first *)
  | Tick of float
  | Find of int  (* the newest live booking of an owner *)
  | Shed  (* the queued read that arrived first *)
  | Clear

let booking_ops =
  (* Half-second steps tie starts and finishes, and give zero-length
     bookings and bookings that end before older ones. *)
  let step = QCheck.Gen.(map (fun k -> float_of_int k /. 2.) (int_range 0 6)) in
  let owner = QCheck.Gen.int_range (-2) 5 in
  let op =
    QCheck.Gen.(
      frequency
        [
          ( 10,
            map3
              (fun after len owner -> Push { after; len; owner })
              step step owner );
          (3, map (fun k -> Cancel k) (int_range 0 8));
          (4, map (fun d -> Tick d) step);
          (2, map (fun o -> Find o) owner);
          (2, return Shed);
          (1, return Clear);
        ])
  in
  let print = function
    | Push { after; len; owner } ->
        Printf.sprintf "push +%g %g %d" after len owner
    | Cancel k -> Printf.sprintf "cancel %d" k
    | Tick d -> Printf.sprintf "tick %g" d
    | Find o -> Printf.sprintf "find %d" o
    | Shed -> "shed"
    | Clear -> "clear"
  in
  QCheck.make ~print:QCheck.Print.(list print)
    QCheck.Gen.(list_size (int_range 1 300) op)

type model_booking = {
  m_start : float;
  m_finish : float;
  m_owner : int;
  m_id : int;  (* pushed as the attempt; the class is its negation *)
}

(* The queue against a list of the bookings not cancelled, oldest first,
   of which those finishing after [now] are live.  Uids 0 to 5 arrive at
   instants that tie in pairs. *)
let prop_bookings_match_model =
  QCheck.Test.make ~count:300 ~name:"booking queue = list of live bookings"
    booking_ops (fun ops ->
      let q = Bookings.create () in
      let arrival = [| 0.; 1.; 0.; 2.; 1.; 2. |] in
      let now = ref 0. and model = ref [] and next_id = ref 0 in
      let live_newest_first () =
        List.rev (List.filter (fun m -> m.m_finish > !now) !model)
      in
      let slot_of i =
        {
          m_start = Bookings.start q i;
          m_finish = Bookings.finish q i;
          m_owner = Bookings.owner q i;
          m_id = Bookings.attempt q i;
        }
      in
      let walk () =
        let slots = ref [] in
        Bookings.iter_live q ~now:!now (fun i -> slots := i :: !slots);
        List.rev !slots
      in
      let agrees () =
        let slots = walk () in
        Bookings.depth q ~now:!now = List.length (live_newest_first ())
        && List.map slot_of slots = live_newest_first ()
        && List.for_all
             (fun i ->
               let service = Bookings.service q i in
               Bookings.cls q i = -Bookings.attempt q i
               && service = Bookings.finish q i -. Bookings.start q i
               && Bookings.mb q i = 2. *. service)
             slots
      in
      List.for_all
        (fun op ->
          (match op with
          | Push { after; len; owner } ->
              let start = !now +. after in
              let id = !next_id in
              incr next_id;
              Bookings.push q ~now:!now ~start ~finish:(start +. len)
                ~service:len ~mb:(2. *. len) ~owner ~attempt:id ~cls:(-id);
              model :=
                !model
                @ [ { m_start = start; m_finish = start +. len;
                      m_owner = owner; m_id = id } ];
              true
          | Cancel k -> (
              match List.nth_opt (walk ()) k with
              | None -> true
              | Some i ->
                  let id = Bookings.attempt q i in
                  let m = List.find (fun m -> m.m_id = id) !model in
                  let refund = Bookings.cancel q i ~from_:!now in
                  model := List.filter (fun m -> m.m_id <> id) !model;
                  refund = max 0. (m.m_finish -. max m.m_start !now)
                  && Bookings.finish q i = neg_infinity)
          | Tick d ->
              now := !now +. d;
              true
          | Find o -> (
              let i =
                Bookings.find_live q ~now:!now (fun i -> Bookings.owner q i = o)
              in
              match
                List.find_opt (fun m -> m.m_owner = o) (live_newest_first ())
              with
              | None -> i = -1
              | Some m -> i >= 0 && Bookings.attempt q i = m.m_id)
          | Shed -> (
              let i = Bookings.oldest_queued_read q ~now:!now ~arrival in
              let first =
                List.fold_left
                  (fun best m ->
                    if m.m_owner < 0 || m.m_start <= !now then best
                    else
                      match best with
                      | Some b when arrival.(b.m_owner) <= arrival.(m.m_owner)
                        ->
                          best
                      | _ -> Some m)
                  None (live_newest_first ())
              in
              match first with
              | None -> i = -1
              | Some m -> i >= 0 && Bookings.attempt q i = m.m_id)
          | Clear ->
              Bookings.clear q;
              model := [];
              true)
          && agrees ())
        ops)

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
  (match Controller.reallocate c () with
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
let tied_value =
  let nan_with payload ~negative =
    Int64.float_of_bits
      (Int64.logor
         (if negative then 0xFFF0000000000000L else 0x7FF0000000000000L)
         (Int64.of_int (1 + payload)))
  in
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

let tied_samples =
  QCheck.make
    ~print:QCheck.Print.(pair (list float) float)
    QCheck.Gen.(
      pair (list_size (int_range 1 400) tied_value) (float_range 0. 100.))

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

(* Short inputs, long ones that span many insertion-sorted runs and merge
   passes, and 10^4 to 2 * 10^4 keys that all tie. *)
let stable_order_keys =
  QCheck.make
    ~print:QCheck.Print.(list float)
    QCheck.Gen.(
      frequency
        [
          (16, list_size (int_range 1 400) tied_value);
          (2, list_size (int_range 401 20_000) tied_value);
          ( 1,
            map2
              (fun n x -> List.init n (fun _ -> x))
              (int_range 10_000 20_000) tied_value );
        ])

let prop_stable_order =
  QCheck.Test.make ~count:500
    ~name:"stable_order = stable sort of positions by Float.compare"
    stable_order_keys (fun xs ->
      let keys = Float.Array.of_list xs in
      let want = Array.init (Float.Array.length keys) Fun.id in
      Array.stable_sort
        (fun i j ->
          Float.compare (Float.Array.get keys i) (Float.Array.get keys j))
        want;
      Stats.stable_order keys = want
      && Stats.stable_order (Float.Array.create 0) = [||])

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
  (best, asked)

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
    ~name:"best_read_target = list-based reference, filtered and unfiltered"
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
            let want, want_asked =
              reference_read ~dynamic ~live ~healthy:(fun b -> ok.(b)) ~exclude
                sched alloc c ~now
            in
            got = want
            && List.rev !asked = want_asked
            && (exclude >= 0
               || Scheduler.best_read_target sched ~now k
                  = fst
                      (reference_read ~dynamic ~live ~healthy:(fun _ -> true)
                         ~exclude sched alloc c ~now)))
          (-1 :: List.init nodes Fun.id)
      in
      (* Reads come first in [classes]. *)
      List.for_all agree
        (List.init (List.length (Allocation.workload alloc).Workload.reads)
           Fun.id))

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
    Alcotest.test_case "simulator: unsorted stream = its stable sort" `Quick
      test_fallback_order_matches_stable_sort;
    QCheck_alcotest.to_alcotest prop_nearest_rank_matches_naive;
    Alcotest.test_case "percentiles: empty samples" `Quick
      test_percentiles_empty;
    Alcotest.test_case "percentiles: selected when read" `Quick
      test_percentiles_on_demand;
    QCheck_alcotest.to_alcotest prop_bookings_match_model;
    Alcotest.test_case "controller: end to end" `Quick
      test_controller_end_to_end;
    Alcotest.test_case "controller: reallocation" `Quick
      test_controller_reallocate;
    Alcotest.test_case "controller: empty journal" `Quick
      test_controller_empty_journal;
    QCheck_alcotest.to_alcotest prop_nearest_rank_bits;
    QCheck_alcotest.to_alcotest prop_stable_order;
    QCheck_alcotest.to_alcotest prop_best_read_target_matches_reference;
  ]
