(* Network partitions, split-brain fencing and fault-domain-aware
   replication: topology, the partition/zone-outage fault kinds, the
   correlated chaos stream, the capped retry backoff, the simulator's
   fencing protocol and the zone-outage experiment's headline claim. *)

open Cdbs_core
module Fault = Cdbs_faults.Fault
module Chaos = Cdbs_faults.Chaos
module Retry = Cdbs_faults.Retry
module Sim = Cdbs_cluster.Simulator
module Request = Cdbs_cluster.Request
module Mon = Cdbs_analysis.Monitor
module Check_a = Cdbs_analysis.Check_allocation
module Diagnostic = Cdbs_analysis.Diagnostic
module Trace = Cdbs_telemetry.Trace
module Sink = Cdbs_telemetry.Sink
module Rng = Cdbs_util.Rng

let named tr n =
  List.filter (fun e -> String.equal (Trace.name e) n) (Trace.events tr)

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

let codes ds = List.map (fun d -> d.Diagnostic.code) ds

let has code ds =
  if not (List.mem code (codes ds)) then
    Alcotest.failf "expected diagnostic %s, got: %s" code
      (String.concat ", " (codes ds))

let clean name m =
  if not (Mon.clean m) then
    Alcotest.failf "%s: monitor found violations: %s" name
      (String.concat ", " (codes (Diagnostic.errors (Mon.report m))))

(* ---------------- topology ---------------- *)

let test_topology_basics () =
  let t = Topology.uniform ~zones:3 7 in
  Alcotest.(check int) "zones" 3 (Topology.zones t);
  Alcotest.(check int) "backends" 7 (Topology.num_backends t);
  Alcotest.(check (list int)) "zone 0 members" [ 0; 3; 6 ]
    (Topology.backends_in t 0);
  Alcotest.(check int) "zone of 5" 2 (Topology.zone_of t 5);
  Alcotest.(check int) "spanned dedups" 2
    (Topology.zones_spanned t [ 0; 3; 1 ])

let test_topology_rejects_gaps () =
  (match Topology.make [| 0; 2 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zone gap should be rejected");
  match Topology.make [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty topology should be rejected"

(* ---------------- fault validation ---------------- *)

let test_partition_validation () =
  let ok =
    Fault.validate ~num_backends:4
      [ Fault.partition ~at:1. ~backends:[ 0; 1 ] ~duration:2. ]
  in
  Alcotest.(check bool) "clean partition accepted" true (Result.is_ok ok);
  let overlapping =
    Fault.validate ~num_backends:4
      [
        Fault.partition ~at:1. ~backends:[ 0 ] ~duration:5.;
        Fault.crash ~at:3. 0;
      ]
  in
  Alcotest.(check bool) "event inside the cut window rejected" true
    (Result.is_error overlapping);
  let down =
    Fault.validate ~num_backends:4
      [ Fault.crash ~at:1. 0; Fault.partition ~at:2. ~backends:[ 0 ] ~duration:1. ]
  in
  Alcotest.(check bool) "partition of a down backend rejected" true
    (Result.is_error down)

let test_zone_outage_needs_topology () =
  let sched = [ Fault.zone_outage ~at:1. ~zone:0 ~duration:2. ] in
  Alcotest.(check bool) "no zone_of -> error" true
    (Result.is_error (Fault.validate ~num_backends:4 sched));
  let zone_of = Array.init 4 (fun b -> b mod 2) in
  Alcotest.(check bool) "with zone_of -> ok" true
    (Result.is_ok (Fault.validate ~zone_of ~num_backends:4 sched))

(* ---------------- correlated chaos ---------------- *)

let correlated_params =
  {
    Chaos.default with
    Chaos.horizon = 400.;
    correlated_mtbf = Some 120.;
    partition_prob = 0.5;
    zones = 3;
  }

let test_chaos_correlated_deterministic () =
  let gen seed =
    Chaos.generate ~rng:(Rng.create seed) ~num_backends:6 correlated_params
  in
  Alcotest.(check bool) "same seed, same schedule" true (gen 7 = gen 7);
  let correlated sched =
    List.exists
      (fun (t : Fault.timed) ->
        match t.Fault.event with
        | Fault.Partition _ | Fault.ZoneOutage _ -> true
        | _ -> false)
      sched
  in
  (* Some seed in a small range must produce a correlated incident at this
     rate (mean ~3 incidents per run). *)
  Alcotest.(check bool) "correlated incidents appear" true
    (List.exists (fun s -> correlated (gen s)) [ 1; 2; 3; 4; 5 ])

let test_chaos_legacy_without_correlated () =
  (* With the correlated stream off, the zones knob must not perturb the
     base schedule — legacy schedules are reproduced exactly. *)
  let gen zones =
    Chaos.generate ~rng:(Rng.create 5) ~num_backends:4
      { Chaos.default with Chaos.zones }
  in
  Alcotest.(check bool) "zones knob inert when correlated off" true
    (gen 1 = gen 4);
  List.iter
    (fun (t : Fault.timed) ->
      match t.Fault.event with
      | Fault.Partition _ | Fault.ZoneOutage _ ->
          Alcotest.fail "correlated event without correlated_mtbf"
      | _ -> ())
    (gen 1)

let test_chaos_correlated_validates () =
  let zone_of = Array.init 6 (fun b -> b mod 3) in
  List.iter
    (fun seed ->
      let sched =
        Chaos.generate ~rng:(Rng.create seed) ~num_backends:6
          correlated_params
      in
      match Fault.validate ~zone_of ~num_backends:6 sched with
      | Ok () -> ()
      | Error m -> Alcotest.failf "seed %d: invalid schedule: %s" seed m)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* ---------------- capped backoff (satellite) ---------------- *)

let prop_backoff_capped =
  QCheck.Test.make ~count:200 ~name:"capped backoff never exceeds the cap"
    QCheck.(triple (int_range 1 15) small_nat (float_range 0.05 2.))
    (fun (attempt, seed, cap) ->
      let p =
        Retry.make ~backoff_base:0.05 ~backoff_multiplier:2. ~jitter:0.3
          ~max_backoff:cap ()
      in
      Retry.backoff ~rng:(Rng.create seed) p ~attempt <= cap)

let test_backoff_cap_applies_after_jitter () =
  (* Uncapped, attempt 10 with base 50 ms doubles past 25 s; the cap must
     clamp the jittered value, not the pre-jitter one. *)
  let capped =
    Retry.make ~backoff_base:0.05 ~backoff_multiplier:2. ~jitter:0.2
      ~max_backoff:0.4 ()
  in
  let uncapped =
    Retry.make ~backoff_base:0.05 ~backoff_multiplier:2. ~jitter:0.2 ()
  in
  for seed = 0 to 19 do
    for attempt = 1 to 12 do
      let d = Retry.backoff ~rng:(Rng.create seed) capped ~attempt in
      if d > 0.4 then Alcotest.failf "seed %d attempt %d: %g > cap" seed attempt d
    done
  done;
  Alcotest.(check bool) "uncapped grows past the cap" true
    (Retry.backoff uncapped ~attempt:10 > 0.4);
  match Retry.make ~max_backoff:0. () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-positive cap should be rejected"

(* ---------------- simulator: partitions and fencing ---------------- *)

let requests () =
  List.init 300 (fun i ->
      let arrival = float_of_int i *. 0.05 in
      if i mod 5 = 0 then Request.update ~arrival ~cost_mb:0.5 "u1"
      else Request.read ~arrival ~cost_mb:0.5 "q1")

let partition_run ?monitor ?telemetry ~seed () =
  let w = workload () in
  let alloc = Ksafety.allocate ~k:1 w (Backend.homogeneous 4) in
  let faults = [ Fault.partition ~at:3. ~backends:[ 0; 1 ] ~duration:4. ] in
  Sim.run_open_with_faults ?monitor ?telemetry
    ~rng:(Rng.create seed)
    (Sim.homogeneous_config 4) alloc (requests ()) ~faults

let test_partition_monitor_clean_and_deterministic () =
  List.iter
    (fun seed ->
      let m = Mon.create () in
      let fo = partition_run ~monitor:m ~seed () in
      clean (Printf.sprintf "partition seed %d" seed) m;
      let fo' = partition_run ~seed () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d deterministic" seed)
        true
        (fo.Sim.responses = fo'.Sim.responses
        && fo.Sim.availability = fo'.Sim.availability
        && fo.Sim.retries = fo'.Sim.retries))
    [ 1; 2; 3; 4; 5 ]

let test_partition_fences_until_caught_up () =
  let sink = Sink.create ~capacity:65536 () in
  let m = Mon.create () in
  let fo = partition_run ~monitor:m ~telemetry:sink ~seed:3 () in
  clean "fencing run" m;
  Alcotest.(check bool) "all requests completed" true
    (fo.Sim.availability = 1.);
  let tr = sink.Sink.trace in
  let heals = named tr "backend.heal" in
  let lifts = named tr "backend.fence_lift" in
  Alcotest.(check int) "one heal per isolated backend" 2 (List.length heals);
  Alcotest.(check int) "every heal lifts its fence" 2 (List.length lifts);
  (* Updates kept flowing on the majority, so the isolated side missed
     volume and the fence can only lift at or after the heal. *)
  let earliest_lift = List.fold_left min infinity (List.map Trace.at lifts) in
  let earliest_heal = List.fold_left min infinity (List.map Trace.at heals) in
  Alcotest.(check bool) "lift not before heal" true
    (earliest_lift >= earliest_heal)

let test_zone_outage_run () =
  let w = workload () in
  let topology = Topology.uniform ~zones:2 4 in
  let alloc = Ksafety.allocate ~topology ~k:1 w (Backend.homogeneous 4) in
  List.iter
    (fun seed ->
      let m = Mon.create () in
      let sink = Sink.create ~capacity:65536 () in
      let fo =
        Sim.run_open_with_faults ~monitor:m ~telemetry:sink ~topology
          ~rng:(Rng.create seed)
          (Sim.homogeneous_config 4) alloc (requests ())
          ~faults:[ Fault.zone_outage ~at:3. ~zone:0 ~duration:4. ]
      in
      clean (Printf.sprintf "zone outage seed %d" seed) m;
      Alcotest.(check bool) "domain-aware placement keeps serving" true
        (fo.Sim.availability = 1.);
      Alcotest.(check int) "zone bracket events" 1
        (List.length (named sink.Sink.trace "zone.outage"));
      Alcotest.(check int) "zone heal bracket" 1
        (List.length (named sink.Sink.trace "zone.heal")))
    [ 1; 2; 3; 4; 5 ]

let test_zone_outage_requires_topology () =
  let w = workload () in
  let alloc = Ksafety.allocate ~k:1 w (Backend.homogeneous 4) in
  match
    Sim.run_open_with_faults (Sim.homogeneous_config 4) alloc (requests ())
      ~faults:[ Fault.zone_outage ~at:3. ~zone:0 ~duration:4. ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zone outage without topology should be rejected"

(* The fencing witness: a healed backend serving a read before its
   catch-up finished must be rejected by the monitor (TRC015) — this is
   the split-brain the epoch fence exists to prevent. *)
let test_fencing_witness_regression () =
  let m = Mon.create () in
  let ev = Mon.observe m in
  ev (Run_start { at = 0.; backends = 4; offered = 0 });
  ev (Backend_partition { at = 1.; backend = 0 });
  ev (Backend_heal { at = 2.; backend = 0; epoch = 1; replay_mb = 3. });
  ev
    (Backend_serve
       { at = 3.; backend = 0; kind = Read "C1"; start = 3.; finish = 3.1 });
  has "TRC015" (Diagnostic.errors (Mon.report m))

(* ---------------- domain-aware k-safety ---------------- *)

(* The fig_zones configuration: 6 backends in 2 contiguous racks, trace
   midday workload.  Known to stack several naive replica pairs inside
   rack 1. *)
let rack_setup () =
  let w = Cdbs_workloads.Trace.workload_at ~hour:14. in
  let topology = Topology.make (Array.init 6 (fun b -> b * 2 / 6)) in
  (w, topology, Backend.homogeneous 6)

let test_spread_allocate () =
  let w, topology, bs = rack_setup () in
  let aware = Ksafety.allocate ~topology ~k:1 w bs in
  Alcotest.(check bool) "aware spreads" true
    (Ksafety.spread_ok ~topology ~k:1 aware);
  Alcotest.(check bool) "aware still 1-safe" true (Ksafety.is_k_safe ~k:1 aware);
  let naive = Ksafety.allocate ~k:1 w bs in
  Alcotest.(check bool) "naive stacks in one rack" false
    (Ksafety.spread_ok ~topology ~k:1 naive)

let test_spread_repair () =
  let w, topology, bs = rack_setup () in
  let alloc = Ksafety.allocate ~k:1 w bs in
  let gained = Ksafety.repair ~topology ~k:1 ~failed:[] alloc in
  Alcotest.(check bool) "repair restores spread" true
    (Ksafety.spread_ok ~topology ~k:1 alloc);
  Alcotest.(check bool) "repair shipped something" true
    (Array.exists (fun s -> not (Fragment.Set.is_empty s)) gained)

let test_alc013_and_alc014 () =
  let w, topology, bs = rack_setup () in
  let naive = Ksafety.allocate ~k:1 w bs in
  has "ALC013" (Diagnostic.errors (Check_a.check ~k:1 ~topology naive));
  let aware = Ksafety.allocate ~topology ~k:1 w bs in
  let aware_codes = codes (Check_a.check ~k:1 ~topology aware) in
  Alcotest.(check bool) "aware has no ALC013" false
    (List.mem "ALC013" aware_codes);
  has "ALC014"
    (Diagnostic.errors
       (Check_a.check ~k:1 ~topology:(Topology.uniform ~zones:2 4) naive))

let test_fig_zones_headline () =
  let r = Cdbs_experiments.Fig_zones.compare_placements () in
  Alcotest.(check bool) "domain-aware availability >= 0.99" true
    (r.Cdbs_experiments.Fig_zones.aware.Cdbs_experiments.Fig_zones.availability
    >= 0.99);
  Alcotest.(check bool) "naive availability < 0.90" true
    (r.Cdbs_experiments.Fig_zones.naive.Cdbs_experiments.Fig_zones.availability
    < 0.90);
  Alcotest.(check bool) "verdict holds" true r.Cdbs_experiments.Fig_zones.verdict

let suite =
  [
    Alcotest.test_case "topology basics" `Quick test_topology_basics;
    Alcotest.test_case "topology rejects gaps" `Quick test_topology_rejects_gaps;
    Alcotest.test_case "partition validation" `Quick test_partition_validation;
    Alcotest.test_case "zone outage needs a topology (validate)" `Quick
      test_zone_outage_needs_topology;
    Alcotest.test_case "correlated chaos is deterministic" `Quick
      test_chaos_correlated_deterministic;
    Alcotest.test_case "chaos without correlated stream is legacy" `Quick
      test_chaos_legacy_without_correlated;
    Alcotest.test_case "correlated schedules validate" `Quick
      test_chaos_correlated_validates;
    QCheck_alcotest.to_alcotest prop_backoff_capped;
    Alcotest.test_case "backoff cap clamps after jitter" `Quick
      test_backoff_cap_applies_after_jitter;
    Alcotest.test_case "partition runs are monitor-clean and deterministic"
      `Quick test_partition_monitor_clean_and_deterministic;
    Alcotest.test_case "partition heals fenced until caught up" `Quick
      test_partition_fences_until_caught_up;
    Alcotest.test_case "zone outage runs are monitor-clean" `Quick
      test_zone_outage_run;
    Alcotest.test_case "zone outage needs a topology (simulate)" `Quick
      test_zone_outage_requires_topology;
    Alcotest.test_case "fencing witness: stale serve rejected" `Quick
      test_fencing_witness_regression;
    Alcotest.test_case "domain-aware allocate spreads replicas" `Quick
      test_spread_allocate;
    Alcotest.test_case "repair restores spread" `Quick test_spread_repair;
    Alcotest.test_case "ALC013/ALC014 domain-spread diagnostics" `Quick
      test_alc013_and_alc014;
    Alcotest.test_case "fig_zones headline predicate" `Slow
      test_fig_zones_headline;
  ]
