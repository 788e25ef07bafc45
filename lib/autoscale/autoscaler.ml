module Trace = Cdbs_workloads.Trace
module Spec = Cdbs_workloads.Spec
module Simulator = Cdbs_cluster.Simulator
module Greedy = Cdbs_core.Greedy
module Backend = Cdbs_core.Backend
module Allocation = Cdbs_core.Allocation
module Physical = Cdbs_core.Physical

type window_report = {
  hour : float;
  rate : float;
  nodes : int;
  avg_response_scaled : float;
  avg_response_static : float;
  transfer_mb : float;
}

type summary = {
  windows : window_report list;
  avg_response : float;
  max_response_window : float;
  reallocations : int;
  total_transfer_mb : float;
}

let allocation_for ~hour nodes =
  let workload = Trace.workload_at ~hour in
  Greedy.allocate workload (Backend.homogeneous nodes)

let fragment_sets alloc =
  List.init (Allocation.num_backends alloc) (Allocation.fragments_of alloc)

let simulate_days ?(window_minutes = 10.) ?(scale = 40.) ?(predictive = false)
    ?(days = 1) ~rng () =
  let policy = Policy.create () in
  let static_nodes = 6 in
  (* The static comparison system is the classic fully replicated cluster
     at maximum size: robust to any mix shift, expensive in storage. *)
  let static_alloc =
    Cdbs_core.Baselines.full_replication (Trace.workload_at ~hour:12.)
      (Backend.homogeneous static_nodes)
  in
  (* Midnight still sees ~100 scaled queries/s; start with two backends. *)
  let nodes = ref 2 in
  let alloc = ref (allocation_for ~hour:0. !nodes) in
  let reallocations = ref 0 in
  let total_transfer = ref 0. in
  let windows = ref [] in
  let steps = int_of_float (24. *. 60. /. window_minutes) in
  let forecast = Forecast.create ~windows_per_day:steps () in
  let summaries = ref [] in
  for _day = 1 to days do
  let response_sum = ref 0. and response_n = ref 0 in
  let max_window = ref 0. in
  windows := [];
  reallocations := 0;
  total_transfer := 0.;
  for w = 0 to steps - 1 do
    let hour = float_of_int w *. window_minutes /. 60. in
    let rate = Trace.rate_per_10min ~hour *. scale in
    let n_requests = int_of_float (rate *. window_minutes /. 10.) in
    let window_seconds = window_minutes *. 60. in
    let requests =
      Spec.uniform_requests ~rng ~n:n_requests ~t0:0. ~span:window_seconds
        (Trace.specs_at ~hour)
    in
    let run alloc_now count =
      let config = Simulator.homogeneous_config count in
      Simulator.run_open config alloc_now requests
    in
    let scaled_outcome = run !alloc !nodes in
    let static_outcome = run static_alloc static_nodes in
    let utilization =
      Cdbs_util.Stats.mean (Array.to_list scaled_outcome.Simulator.utilization)
      *. (scaled_outcome.Simulator.makespan /. window_seconds)
    in
    (* [rate] is in requests per 10 minutes; the profile stores it as is. *)
    Forecast.observe forecast ~window:w ~rate;
    let transfer = ref 0. in
    let reactive =
      Policy.decide policy ~current:!nodes
        ~avg_response:scaled_outcome.Simulator.avg_response ~utilization
    in
    (* Predictive target for the upcoming window, once the profile knows
       it; the reactive decision still wins when it asks for more. *)
    let nodes_for rate =
      (* 25% headroom over the predicted rate keeps queueing in check; a
         backend takes 60 queries/s at the target utilization. *)
      let qps = rate /. 600. in
      max 1 (min 6 (int_of_float (ceil (qps *. 1.25 /. 60.))))
    in
    (* Provision for the worst of the next three windows: a single-window
       horizon thrashes on every ceil boundary of the rising ramp. *)
    let proactive =
      if not predictive then None
      else
        let horizon =
          List.filter_map
            (fun ahead -> Forecast.predict forecast ~window:(w + ahead))
            [ 1; 2; 3 ]
        in
        match horizon with
        | [] -> None
        | rates -> Some (nodes_for (List.fold_left max 0. rates))
    in
    let target =
      match (reactive, proactive) with
      | Policy.Scale_to t, Some p -> Some (max t p)
      | Policy.Scale_to t, None -> Some t
      | Policy.Stay, Some p when p > !nodes -> Some p
      | Policy.Stay, Some p when p < !nodes - 1 ->
          (* Step down conservatively, one node at a time, only when the
             whole horizon is known. *)
          if Forecast.coverage forecast >= 1. then Some (!nodes - 1) else None
      | Policy.Stay, _ -> None
    in
    (match target with
    | Some target when target <> !nodes ->
        let next = allocation_for ~hour target in
        let plan =
          Physical.plan_scaled ~old_fragments:(fragment_sets !alloc) next
        in
        transfer := plan.Physical.transfer;
        total_transfer := !total_transfer +. plan.Physical.transfer;
        incr reallocations;
        nodes := target;
        alloc := next
    | _ -> ());
    response_sum :=
      !response_sum
      +. (scaled_outcome.Simulator.avg_response
         *. float_of_int scaled_outcome.Simulator.completed);
    response_n := !response_n + scaled_outcome.Simulator.completed;
    if scaled_outcome.Simulator.avg_response > !max_window then
      max_window := scaled_outcome.Simulator.avg_response;
    windows :=
      {
        hour;
        rate;
        nodes = !nodes;
        avg_response_scaled = scaled_outcome.Simulator.avg_response;
        avg_response_static = static_outcome.Simulator.avg_response;
        transfer_mb = !transfer;
      }
      :: !windows
  done;
  summaries :=
    {
      windows = List.rev !windows;
      avg_response =
        (if !response_n > 0 then !response_sum /. float_of_int !response_n
         else 0.);
      max_response_window = !max_window;
      reallocations = !reallocations;
      total_transfer_mb = !total_transfer;
    }
    :: !summaries
  done;
  List.rev !summaries

let simulate_day ?window_minutes ?scale ~rng () =
  match simulate_days ?window_minutes ?scale ~days:1 ~rng () with
  | [ summary ] -> summary
  | _ -> assert false
