(* Autoscaling policy and the elastic day simulation. *)

module Policy = Cdbs_autoscale.Policy
module Autoscaler = Cdbs_autoscale.Autoscaler

(* The policy's thresholds: scale up above 18 ms (two steps above 108 ms),
   down below 11.8 ms at low utilization, within 1-6 nodes, one window of
   cooldown after each action. *)

let test_policy_scale_up () =
  let p = Policy.create () in
  match Policy.decide p ~current:2 ~avg_response:0.05 ~utilization:0.9 with
  | Policy.Scale_to 3 -> ()
  | Policy.Scale_to n -> Alcotest.failf "scaled to %d" n
  | Policy.Stay -> Alcotest.fail "should scale up"

let test_policy_double_step_on_meltdown () =
  let p = Policy.create () in
  match Policy.decide p ~current:2 ~avg_response:1.0 ~utilization:1.0 with
  | Policy.Scale_to 4 -> ()
  | _ -> Alcotest.fail "meltdown should jump two nodes"

let test_policy_scale_down_needs_low_utilization () =
  let p = Policy.create () in
  (match Policy.decide p ~current:3 ~avg_response:0.005 ~utilization:0.8 with
  | Policy.Stay -> ()
  | _ -> Alcotest.fail "busy cluster must not scale down");
  match Policy.decide p ~current:3 ~avg_response:0.005 ~utilization:0.1 with
  | Policy.Scale_to 2 -> ()
  | _ -> Alcotest.fail "idle cluster should scale down"

let test_policy_respects_bounds () =
  let p = Policy.create () in
  (match Policy.decide p ~current:6 ~avg_response:0.5 ~utilization:1.0 with
  | Policy.Stay -> ()
  | _ -> Alcotest.fail "must not exceed max");
  (match Policy.decide p ~current:5 ~avg_response:0.5 ~utilization:1.0 with
  | Policy.Scale_to 6 -> ()
  | _ -> Alcotest.fail "a double step stops at the max");
  let p = Policy.create () in
  match Policy.decide p ~current:1 ~avg_response:0.001 ~utilization:0.01 with
  | Policy.Stay -> ()
  | _ -> Alcotest.fail "must not go below min"

let test_policy_cooldown () =
  let p = Policy.create () in
  (match Policy.decide p ~current:1 ~avg_response:0.05 ~utilization:1.0 with
  | Policy.Scale_to _ -> ()
  | Policy.Stay -> Alcotest.fail "first decision should scale");
  (* The next window is cooled down regardless of load. *)
  (match Policy.decide p ~current:2 ~avg_response:0.5 ~utilization:1.0 with
  | Policy.Stay -> ()
  | _ -> Alcotest.fail "cooldown violated");
  match Policy.decide p ~current:2 ~avg_response:0.5 ~utilization:1.0 with
  | Policy.Scale_to _ -> ()
  | Policy.Stay -> Alcotest.fail "cooldown should have expired"

let test_elastic_day_smoke () =
  (* A shortened day (30-minute windows, modest scale) must track the load
     shape: fewer nodes at night than at the peak, bounded response.
     Scale 10 is the smallest at which the peak takes a second node. *)
  let summary =
    Autoscaler.simulate_day ~window_minutes:30. ~scale:10.
      ~rng:(Cdbs_util.Rng.create 7) ()
  in
  let nodes_at hour =
    let w =
      List.find
        (fun (w : Autoscaler.window_report) ->
          abs_float (w.Autoscaler.hour -. hour) < 0.26)
        summary.Autoscaler.windows
    in
    w.Autoscaler.nodes
  in
  Alcotest.(check bool) "peak uses more nodes than the night" true
    (nodes_at 20. > nodes_at 5.);
  Alcotest.(check bool) "day average below 100 ms" true
    (summary.Autoscaler.avg_response < 0.1);
  Alcotest.(check bool) "scaled at least twice" true
    (summary.Autoscaler.reallocations >= 2);
  Alcotest.(check bool) "reallocations ship data" true
    (summary.Autoscaler.total_transfer_mb > 0.)

let suite =
  [
    Alcotest.test_case "policy: scale up" `Quick test_policy_scale_up;
    Alcotest.test_case "policy: meltdown double step" `Quick
      test_policy_double_step_on_meltdown;
    Alcotest.test_case "policy: scale down gating" `Quick
      test_policy_scale_down_needs_low_utilization;
    Alcotest.test_case "policy: bounds" `Quick test_policy_respects_bounds;
    Alcotest.test_case "policy: cooldown" `Quick test_policy_cooldown;
    Alcotest.test_case "elastic day tracks load" `Slow test_elastic_day_smoke;
  ]

let test_forecast_learns () =
  let f = Cdbs_autoscale.Forecast.create ~windows_per_day:4 () in
  Alcotest.(check bool) "unknown before" true
    (Cdbs_autoscale.Forecast.predict f ~window:1 = None);
  Cdbs_autoscale.Forecast.observe f ~window:1 ~rate:100.;
  (match Cdbs_autoscale.Forecast.predict f ~window:1 with
  | Some r -> Alcotest.(check (float 1e-9)) "first observation" 100. r
  | None -> Alcotest.fail "no prediction");
  (* EWMA with alpha 0.5: 100 then 200 -> 150. *)
  Cdbs_autoscale.Forecast.observe f ~window:1 ~rate:200.;
  (match Cdbs_autoscale.Forecast.predict f ~window:5 with
  | Some r -> Alcotest.(check (float 1e-9)) "EWMA, modulo period" 150. r
  | None -> Alcotest.fail "no prediction");
  Alcotest.(check (float 1e-9)) "coverage 1/4" 0.25
    (Cdbs_autoscale.Forecast.coverage f)

let suite =
  suite
  @ [ Alcotest.test_case "forecast: EWMA profile" `Quick test_forecast_learns ]
