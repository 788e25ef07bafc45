(* Telemetry subsystem: the heap event core, log-bucketed histograms,
   the metrics registry, trace rings, SLO reports — and the two contracts
   the rest of the repo leans on: heap order matches sorted order, and a
   telemetry sink never changes simulation outcomes. *)

module Heap = Cdbs_util.Heap
module Stats = Cdbs_util.Stats
module Rng = Cdbs_util.Rng
module Tel = Cdbs_telemetry
module Histogram = Tel.Histogram
module Metrics = Tel.Metrics
module Trace = Tel.Trace
module Slo = Tel.Slo_report
module Simulator = Cdbs_cluster.Simulator
module Ksafety = Cdbs_core.Ksafety
module Fault = Cdbs_faults.Fault
module Fd = Cdbs_experiments.Fig_day

(* ---------------- heap: unit ---------------- *)

let pop h = Option.map snd (Heap.pop_timed h)

let test_heap_basics () =
  let h = Heap.create () in
  Alcotest.(check (option (pair (float 0.) string))) "pop on empty" None
    (Heap.pop_timed h);
  Heap.add h ~time:3. "c";
  Heap.add h ~time:1. "a";
  Heap.add h ~time:2. "b";
  Alcotest.(check (option string)) "pop min" (Some "a") (pop h);
  Alcotest.(check (option (pair (float 0.) string)))
    "pop_timed returns key" (Some (2., "b")) (Heap.pop_timed h);
  Alcotest.(check (option string)) "last" (Some "c") (pop h);
  Alcotest.(check (option string)) "drained" None (pop h)

let test_heap_tie_breaking () =
  let h = Heap.create () in
  (* Later entries past the initial 256 slots make the arrays grow. *)
  for _ = 1 to 300 do
    Heap.add h ~time:9. "filler"
  done;
  (* Equal times: rank decides; equal (time, rank): FIFO. *)
  Heap.add h ~time:5. ~rank:2 "arrival-1";
  Heap.add h ~time:5. ~rank:0 "fault-1";
  Heap.add h ~time:5. ~rank:1 "dyn-1";
  Heap.add h ~time:5. ~rank:1 "dyn-2";
  Heap.add h ~time:5. ~rank:0 "fault-2";
  let order = List.init 5 (fun _ -> Option.get (pop h)) in
  Alcotest.(check (list string))
    "rank then FIFO"
    [ "fault-1"; "fault-2"; "dyn-1"; "dyn-2"; "arrival-1" ]
    order

let test_heap_drain_until () =
  let h = Heap.create () in
  List.iter (fun t -> Heap.add h ~time:t t) [ 4.; 1.; 3.; 2.; 9. ];
  let seen = ref [] in
  Heap.drain_until h ~time:3. ~f:(fun at v ->
      Alcotest.(check (float 0.)) "key equals payload" v at;
      seen := v :: !seen;
      (* Entries pushed mid-drain inside the bound drain too. *)
      if v = 1. then Heap.add h ~time:2.5 2.5);
  Alcotest.(check (list (float 0.))) "in-order within bound"
    [ 1.; 2.; 2.5; 3. ] (List.rev !seen);
  Alcotest.(check (list (option (float 0.)))) "rest stays"
    [ Some 4.; Some 9.; None ]
    (List.init 3 (fun _ -> pop h))

(* ---------------- heap: property ---------------- *)

(* Heap pop order is exactly the stable sort of the input by
   (time, rank): the contract that made the simulator refactor safe. *)
let prop_heap_matches_sorted =
  QCheck.Test.make ~count:200 ~name:"heap pop order = stable sort order"
    QCheck.(list (pair (int_range 0 8) (int_range 0 2)))
    (fun entries ->
      (* A coarse time grid plus only three ranks forces many ties, the
         interesting case. *)
      let entries =
        List.mapi (fun i (t, r) -> (float_of_int t, r, i)) entries
      in
      let h = Heap.create () in
      List.iter (fun (t, r, i) -> Heap.add h ~time:t ~rank:r i) entries;
      let popped = ref [] in
      let rec drain () =
        match pop h with
        | Some i ->
            popped := i :: !popped;
            drain ()
        | None -> ()
      in
      drain ();
      let expected =
        List.stable_sort
          (fun (t1, r1, _) (t2, r2, _) ->
            match Float.compare t1 t2 with
            | 0 -> Int.compare r1 r2
            | c -> c)
          entries
        |> List.map (fun (_, _, i) -> i)
      in
      List.rev !popped = expected)

(* ---------------- histogram: unit ---------------- *)

(* Observations below the histogram's 1e-6 floor: bucket -1. *)
let underflow h =
  Option.value ~default:0 (List.assoc_opt (-1) (Histogram.buckets h))

let test_histogram_basics () =
  let h = Histogram.create () in
  Alcotest.(check (float 0.)) "empty quantile" 0. (Histogram.quantile h 0.5);
  Alcotest.(check int) "empty count" 0 (Histogram.count h);
  List.iter (Histogram.record h) [ 0.010; 0.020; 0.030 ];
  Histogram.record_n h 0.020 ~n:2;
  Alcotest.(check int) "count" 5 (Histogram.count h);
  Alcotest.(check (float 1e-12)) "mean exact" 0.02 (Histogram.mean h);
  Alcotest.(check (float 1e-12)) "min exact" 0.010 (Histogram.min_recorded h);
  Alcotest.(check (float 1e-12)) "max exact" 0.030 (Histogram.max_recorded h);
  (* Quantile estimates clamp to the observed range. *)
  Alcotest.(check bool) "p99 <= max" true
    (Histogram.percentile h 99. <= 0.030);
  Alcotest.(check bool) "p1 >= min" true (Histogram.percentile h 1. >= 0.010);
  Histogram.record h 1e-9;
  Alcotest.(check int) "below the floor underflows" 1 (underflow h);
  Histogram.reset h;
  Alcotest.(check int) "reset empties" 0 (Histogram.count h)

(* ---------------- histogram: properties ---------------- *)

let values_arbitrary =
  (* Positive values well above min_value, on a lattice so duplicates are
     common. *)
  QCheck.(
    list_of_size
      Gen.(int_range 1 300)
      (map (fun k -> 1e-4 *. float_of_int (k + 1)) (int_range 0 5000)))

(* The histogram's nearest-rank quantile lands within one log-bucket of
   the exact sorted-list quantile. *)
let prop_histogram_quantile_close =
  QCheck.Test.make ~count:200
    ~name:"histogram quantile within one bucket of exact"
    values_arbitrary
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) xs;
      (* One bucket spans a factor of 10^(1/per_decade); the midpoint
         estimate is within half a bucket of any member, and clamping to
         the observed range can only help. *)
      let tol = (10. ** (1. /. 90.)) *. (1. +. 1e-9) in
      List.for_all
        (fun p ->
          let exact = Stats.percentile p xs in
          let est = Histogram.percentile h p in
          est <= exact *. tol && est >= exact /. tol)
        [ 1.; 25.; 50.; 75.; 90.; 95.; 99.; 100. ])

(* Merging is exact: bucket-count addition, so any way of splitting and
   recombining a stream yields the same histogram. *)
let prop_histogram_merge_associative =
  QCheck.Test.make ~count:200
    ~name:"histogram merge = recording the concatenation"
    QCheck.(triple values_arbitrary values_arbitrary values_arbitrary)
    (fun (xs, ys, zs) ->
      let of_list l =
        let h = Histogram.create () in
        List.iter (Histogram.record h) l;
        h
      in
      let whole = of_list (xs @ ys @ zs) in
      (* ((x + y) + z) built by merge... *)
      let merged = of_list xs in
      Histogram.merge_into merged ~from:(of_list ys);
      Histogram.merge_into merged ~from:(of_list zs);
      (* ...and (x + (y + z)) the other way around. *)
      let yz = of_list ys in
      Histogram.merge_into yz ~from:(of_list zs);
      let merged' = of_list xs in
      Histogram.merge_into merged' ~from:yz;
      Histogram.buckets merged = Histogram.buckets whole
      && Histogram.buckets merged' = Histogram.buckets whole
      && Histogram.count merged = Histogram.count whole
      && abs_float (Histogram.mean merged -. Histogram.mean whole) < 1e-9
      && Histogram.min_recorded merged = Histogram.min_recorded whole
      && Histogram.max_recorded merged = Histogram.max_recorded whole)

(* ---------------- histogram: non-finite values ---------------- *)

let test_histogram_non_finite () =
  let h = Histogram.create () in
  Histogram.record h 0.01;
  Histogram.record h infinity;
  (* Nearest rank 2 of 2 is the infinite sample, above every bucket. *)
  Alcotest.(check bool) "p99 reports the infinite sample" true
    (Histogram.percentile h 99. = infinity);
  Alcotest.(check bool) "p50 stays in the finite bucket" true
    (Histogram.percentile h 50. < 0.011);
  Alcotest.(check int) "counted" 2 (Histogram.count h);
  Alcotest.(check int) "in no bucket" 1
    (List.fold_left (fun acc (_, c) -> acc + c) 0 (Histogram.buckets h));
  let rejects f =
    match f () with exception Invalid_argument _ -> true | () -> false
  in
  Alcotest.(check bool) "record rejects NaN" true
    (rejects (fun () -> Histogram.record h nan));
  Alcotest.(check bool) "record_n rejects NaN" true
    (rejects (fun () -> Histogram.record_n h nan ~n:3));
  Alcotest.(check int) "a rejected NaN is not counted" 2 (Histogram.count h);
  Histogram.record h neg_infinity;
  Alcotest.(check int) "neg_infinity underflows" 1 (underflow h);
  Alcotest.(check bool) "p1 reports the underflow as the floor" true
    (Histogram.percentile h 1. = 1e-6)

(* ---------------- histogram: quantile cursor ---------------- *)

(* The from-zero nearest-rank walk, rebuilt from the non-empty buckets
   the interface exposes and the documented bucketing (a 1e-6 floor, 90
   buckets per decade).  Infinite observations sit in no bucket. *)
let reference_quantile h q =
  let n = Histogram.count h in
  if n = 0 then 0.
  else
    let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
    let under = underflow h in
    let mid i = 1e-6 *. (10. ** ((float_of_int i +. 0.5) /. 90.)) in
    let rec walk remaining = function
      | [] -> Histogram.max_recorded h
      | (i, _) :: rest when i < 0 -> walk remaining rest
      | (i, c) :: rest ->
          if remaining <= c then mid i else walk (remaining - c) rest
    in
    let estimate =
      if rank <= under then 1e-6
      else walk (rank - under) (Histogram.buckets h)
    in
    max (Histogram.min_recorded h) (min (Histogram.max_recorded h) estimate)

type hist_op =
  | Record of float
  | Record_n of float * int
  | Reset
  | Merge of float list
  | Query of float

let hist_ops =
  let value =
    QCheck.Gen.(
      frequency
        [
          (8, map (fun k -> 1e-4 *. float_of_int (k + 1)) (int_range 0 200));
          (2, map (fun e -> 10. ** float_of_int e) (int_range (-9) 12));
          (1, oneofl [ 0.; -1.; neg_infinity; infinity ]);
        ])
  in
  let op =
    QCheck.Gen.(
      frequency
        [
          (10, map (fun v -> Record v) value);
          (3, map2 (fun v n -> Record_n (v, n)) value (int_range 0 4));
          (1, return Reset);
          (2, map (fun vs -> Merge vs) (list_size (int_range 0 20) value));
          (8, map (fun q -> Query q) (float_range 0. 1.));
        ])
  in
  let print = function
    | Record v -> Printf.sprintf "record %h" v
    | Record_n (v, n) -> Printf.sprintf "record_n %h %d" v n
    | Reset -> "reset"
    | Merge vs -> Printf.sprintf "merge %d" (List.length vs)
    | Query q -> Printf.sprintf "query %h" q
  in
  QCheck.make ~print:QCheck.Print.(list print)
    QCheck.Gen.(list_size (int_range 1 200) op)

let prop_histogram_cursor_matches_walk =
  QCheck.Test.make ~count:300
    ~name:"histogram quantile = from-zero bucket walk after any history"
    hist_ops (fun ops ->
      let h = ref (Histogram.create ()) in
      let agrees q =
        Int64.equal
          (Int64.bits_of_float (Histogram.quantile !h q))
          (Int64.bits_of_float (reference_quantile !h q))
      in
      List.for_all
        (fun op ->
          match op with
          | Record v -> Histogram.record !h v; true
          | Record_n (v, n) -> Histogram.record_n !h v ~n; true
          | Reset -> Histogram.reset !h; true
          | Merge vs ->
              let from = Histogram.create () in
              List.iter (Histogram.record from) vs;
              Histogram.merge_into !h ~from;
              true
          | Query q -> agrees q)
        ops
      && List.for_all agrees [ 0.; 0.01; 0.5; 0.95; 0.99; 1. ])

(* ---------------- metrics registry ---------------- *)

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let test_metrics_registry () =
  let m = Metrics.create () in
  let req = Metrics.counter m "requests" in
  Metrics.add req 1;
  Metrics.add (Metrics.counter m "requests") 4;
  Metrics.add (Metrics.counter m "errors") 1;
  Alcotest.(check (option int)) "counter interned" (Some 5)
    (Metrics.find_counter m "requests");
  Alcotest.(check (option int)) "unknown counter absent" None
    (Metrics.find_counter m "nope");
  let h = Metrics.histogram m "latency" in
  Histogram.record h 0.5;
  let h' = Metrics.histogram m "latency" in
  Alcotest.(check int) "histogram interned" 1 (Histogram.count h');
  Alcotest.(check (option int)) "errors counted apart" (Some 1)
    (Metrics.find_counter m "errors")

(* ---------------- trace ring ---------------- *)

let test_trace_ring () =
  let t = Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Trace.push t (Trace.custom ~at:(float_of_int i) "tick" [ ("i", Trace.Int i) ])
  done;
  Alcotest.(check int) "ring keeps capacity" 3 (Trace.length t);
  Alcotest.(check int) "dropped counts evictions" 2 (Trace.dropped t);
  Alcotest.(check int) "total counts everything" 5 (Trace.total t);
  Alcotest.(check (list (float 0.))) "oldest first, newest kept"
    [ 3.; 4.; 5. ]
    (List.map Trace.at (Trace.events t))

(* One event of each typed constructor. *)
let typed_samples : Trace.event list =
  let x = 1. in
  [
    Run_start { at = x; backends = 1; offered = 1 };
    Run_summary
      {
        at = x; offered = 1; completed = 1; aborted = 0; shed = 0;
        timeouts = 0; retries = 0; hedged = 0; hedge_wins = 0;
        offered_updates = 0; completed_updates = 0;
      };
    Backend_serve
      { at = x; backend = 0; kind = Catchup; start = x; finish = x };
    Backend_crash { at = x; backend = 0 };
    Backend_recover { at = x; backend = 0; replay_mb = x };
    Backend_catchup_done { at = x; backend = 0 };
    Backend_partition { at = x; backend = 0 };
    Backend_heal { at = x; backend = 0; epoch = 1; replay_mb = x };
    Backend_fence_lift { at = x; backend = 0; epoch = 1 };
    Backend_slowdown { at = x; backend = 0; factor = x; duration_s = x };
    Zone_outage { at = x; zone = 0; backends = 1 };
    Zone_heal { at = x; zone = 0 };
    Workload_shift { at = x; classes = 1 };
    Breaker_transition { at = x; backend = 0; state = Open };
    Request_shed { at = x; uid = 0; reason = Evicted_oldest };
    Request_retry
      { at = x; uid = 0; attempt = 1; retry_at = x; remaining_s = None };
    Request_hedge_armed { at = x; uid = 0; primary = 0; fire_at = x };
    Request_hedge_win { at = x; uid = 0; backend = 1 };
    Migration_floor { at = x; cls = "Q"; floor = 1 };
    Migration_live { at = x; cls = "Q"; replicas = 1 };
    Control_session
      {
        at = x; threshold = x; hysteresis = x; cooldown_s = x;
        canary_windows = 1;
      };
    Control_trigger { at = x; score = x; threshold = x; cooldown_s = x };
    Control_plan
      {
        at = x; accepted = true; clean = true; cost_before = x; cost_after = x;
        moved_mb = x; moved_fragments = 1;
      };
    Control_reallocate_start { at = x; id = 1; moved_mb = x };
    Control_breach { at = x; id = 1; metric = "p99_s"; value = x; limit = x };
    Control_rollback { at = x; id = 1 };
    Control_commit { at = x; id = 1 };
  ]

(* A free-form event may not take a name a typed constructor owns, so no
   emitter can bypass the monitor's typed rules with a look-alike. *)
let test_trace_typed_names () =
  let refused f =
    match f () with () -> false | exception Invalid_argument _ -> true
  in
  List.iter
    (fun e ->
      let name = Trace.name e in
      Alcotest.(check bool) (name ^ " refused") true
        (refused (fun () ->
             Trace.push (Trace.create ()) (Trace.custom ~at:0. name [])));
      Alcotest.(check bool)
        (name ^ " refused with the sink off")
        true
        (refused (fun () -> Tel.Sink.ev None ~at:0. name [])))
    typed_samples;
  Alcotest.(check int) "every wire name distinct" (List.length typed_samples)
    (List.length (List.sort_uniq compare (List.map Trace.name typed_samples)));
  let t = Trace.create () in
  Trace.push t
    (Trace.custom ~at:0. "migration.start" [ ("copy_mb", Trace.Float 1.) ]);
  Alcotest.(check int) "free-form names pass" 1 (Trace.length t)

(* The ring against a list model: for every capacity and emit count it
   retains the last [min n cap] events oldest first, counts the rest as
   dropped, and a subscriber still sees all [n] in emission order. *)
let prop_trace_ring_model =
  QCheck.Test.make ~count:300
    ~name:"trace ring keeps the last min(n, cap) events"
    QCheck.(pair (int_range 1 64) (int_range 0 300))
    (fun (cap, n) ->
      let t = Trace.create ~capacity:cap () in
      let seen = ref [] in
      ignore (Trace.subscribe t (fun e -> seen := e :: !seen));
      for i = 0 to n - 1 do
        Trace.push t (Trace.custom ~at:(float_of_int i) "tick" [ ("i", Trace.Int i) ])
      done;
      let len = min n cap in
      let seen = List.rev !seen in
      Trace.length t = len
      && Trace.dropped t = n - len
      && Trace.total t = n
      && List.map Trace.at seen = List.init n float_of_int
      && Trace.events t = List.filteri (fun i _ -> i >= n - len) seen)

(* ---------------- SLO report ---------------- *)

let test_slo_gate () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 0.010; 0.020; 0.500 ];
  let r =
    Slo.of_histogram ~duration_s:60. ~offered:100 ~completed:97 ~shed:2
      ~failed:1 ~wasted_work_s:0.3 ~retries:4 ~hedges:1 ~bytes_moved_mb:12.
      ~migrations:1 ~faults_injected:3
      ~utilization:[ (1, 0.5); (0, 0.25) ]
      h
  in
  Alcotest.(check (float 1e-9)) "availability" 0.97 r.Slo.availability;
  Alcotest.(check (float 1e-9)) "shed rate" 0.02 r.Slo.shed_rate;
  Alcotest.(check (list (pair int (float 0.)))) "utilization sorted"
    [ (0, 0.25); (1, 0.5) ]
    r.Slo.utilization;
  let violations g =
    Slo.check g ~availability:r.Slo.availability ~p99_s:r.Slo.p99_s
      ~shed_rate:r.Slo.shed_rate
  in
  Alcotest.(check (list string)) "passing gate" []
    (violations (Slo.gate ~min_availability:0.9 ~max_shed_rate:0.05 ()));
  Alcotest.(check int) "failing gate reports both" 2
    (List.length
       (violations (Slo.gate ~min_availability:0.99 ~max_p99_s:0.001 ())))

(* ---------------- sink invisibility ---------------- *)

(* A telemetry sink is strictly an observer: the defended simulation's
   outcome record is structurally identical with and without one. *)
let prop_sink_is_invisible =
  QCheck.Test.make ~count:40 ~name:"telemetry sink never changes outcomes"
    Gen.scenario_arbitrary
    (fun (w, backends) ->
      let n = List.length backends in
      let alloc = Ksafety.allocate ~k:(min 1 (n - 1)) w backends in
      let config = Simulator.homogeneous_config n in
      let requests =
        let rng = Rng.create 31 in
        List.concat_map
          (fun (c : Cdbs_core.Query_class.t) ->
            List.init 6 (fun _ ->
                Cdbs_cluster.Request.read
                  ~arrival:(Rng.float rng 4.)
                  ~cost_mb:30. c.Cdbs_core.Query_class.id))
          (Cdbs_core.Workload.all_classes w)
      in
      let faults =
        if n < 2 then []
        else
          [
            Fault.crash ~at:1. 0;
            Fault.recover ~at:2. 0;
            Fault.slowdown ~at:2.5 ~backend:(n - 1) ~factor:3. ~duration:1.;
          ]
      in
      let resilience =
        Cdbs_resilience.Policy.make
          ~admission:
            (Cdbs_resilience.Admission.make ~max_depth:8 ~max_pending:1. ())
          ~breaker:Cdbs_resilience.Breaker.default_config
          ~hedge:Cdbs_resilience.Hedge.default
          ~deadline:(Cdbs_resilience.Deadline.make ~budget:3.)
          ()
      in
      let go telemetry =
        Simulator.run_open_with_faults ~rng:(Rng.create 7) ~resilience
          ?telemetry config alloc requests ~faults
      in
      let sink = Tel.Sink.create () in
      go None = go (Some sink))

(* ---------------- fig_day determinism ---------------- *)

let test_day_deterministic () =
  let params = { Fd.smoke with Fd.scale = 0.05 } in
  let go () =
    let r = Fd.run ~params () in
    (r.Fd.report, r.Fd.windows, r.Fd.events)
  in
  let r1, w1, e1 = go () in
  let r2, w2, e2 = go () in
  Alcotest.(check bool) "same seed, same SLO report" true (r1 = r2);
  Alcotest.(check bool) "same windows" true (w1 = w2);
  Alcotest.(check int) "same event count" e1 e2;
  Alcotest.(check bool) "nonempty day" true (e1 > 0 && r1.Slo.offered > 0)

let suite =
  [
    Alcotest.test_case "heap: push/pop/peek basics" `Quick test_heap_basics;
    Alcotest.test_case "heap: rank then FIFO tie-breaking" `Quick
      test_heap_tie_breaking;
    Alcotest.test_case "heap: drain_until is in-order and reentrant" `Quick
      test_heap_drain_until;
    Alcotest.test_case "histogram: counts, moments, clamping, underflow"
      `Quick test_histogram_basics;
    Alcotest.test_case "metrics: interning, listing, json" `Quick
      test_metrics_registry;
    Alcotest.test_case "trace: ring eviction and spans" `Quick test_trace_ring;
    QCheck_alcotest.to_alcotest prop_trace_ring_model;
    Alcotest.test_case "trace: typed names are refused as free-form" `Quick
      test_trace_typed_names;
    Alcotest.test_case "slo report: derivation and gates" `Quick
      test_slo_gate;
    Alcotest.test_case "fig_day: bit-identical at equal seeds" `Quick
      test_day_deterministic;
    QCheck_alcotest.to_alcotest prop_heap_matches_sorted;
    QCheck_alcotest.to_alcotest prop_histogram_quantile_close;
    QCheck_alcotest.to_alcotest prop_histogram_merge_associative;
    QCheck_alcotest.to_alcotest prop_sink_is_invisible;
    Alcotest.test_case "histogram: +infinity ranks last, NaN is rejected"
      `Quick test_histogram_non_finite;
    QCheck_alcotest.to_alcotest prop_histogram_cursor_matches_walk;
  ]
