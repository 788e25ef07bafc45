module Autoscaler = Cdbs_autoscale.Autoscaler
module Trace = Cdbs_workloads.Trace
module Segmented = Cdbs_core.Segmented
module Classification = Cdbs_core.Classification
module Greedy = Cdbs_core.Greedy
module Backend = Cdbs_core.Backend
module Allocation = Cdbs_core.Allocation
module Rng = Cdbs_util.Rng

(* Run the autonomic day as the paper does (trace scaled 40x, 10-minute
   windows). *)
let elastic_day () =
  Autoscaler.simulate_day ~window_minutes:10. ~scale:40. ~rng:(Rng.create 5) ()

let fig6 ?(step_minutes = 60.) () =
  let steps = int_of_float (24. *. 60. /. step_minutes) in
  List.init steps (fun w ->
      let hour = float_of_int w *. step_minutes /. 60. in
      let rate = Trace.rate_per_10min ~hour in
      let mix = Trace.class_mix ~hour in
      (hour, List.map (fun (id, share) -> (id, rate *. share)) mix))

(* Run the Sec. 5 sliding-window segmentation over a synthetic day journal;
   returns the (start, end) hours of each segment and the backend count of
   the merged allocation. *)
let segmentation_demo () =
  let journal = Trace.journal_for_day ~rng:(Rng.create 3) ~scale:1. in
  let size_of =
    Classification.default_sizes ~schema:Trace.schema ~rows:Trace.row_counts
  in
  let classify j =
    Cdbs_core.Workload.normalize
      (Classification.classify ~schema:Trace.schema ~size_of
         Classification.By_table j)
  in
  let allocate w = Greedy.allocate w (Backend.homogeneous 4) in
  let merged, segments =
    Segmented.allocate_segmented ~classify ~allocate ~window:3600.
      ~threshold:0.25 journal
  in
  ( List.map
      (fun s ->
        (s.Segmented.start_time /. 3600., s.Segmented.end_time /. 3600.))
      segments,
    Allocation.num_backends merged )

let print_all () =
  Common.header "Elastic scaling: active servers and response time vs load";
  let summary = elastic_day () in
  Fmt.pr
    "%8s%12s%8s%14s%14s%12s@." "hour" "req/10min" "nodes" "resp(ms)"
    "static(ms)" "moved(MB)";
  List.iteri
    (fun i (w : Autoscaler.window_report) ->
      (* Print every third window to keep the table readable. *)
      if i mod 3 = 0 then
        Fmt.pr "%8.2f%12.0f%8d%14.1f%14.1f%12.1f@." w.Autoscaler.hour
          w.Autoscaler.rate w.Autoscaler.nodes
          (w.Autoscaler.avg_response_scaled *. 1000.)
          (w.Autoscaler.avg_response_static *. 1000.)
          w.Autoscaler.transfer_mb)
    summary.Autoscaler.windows;
  Fmt.pr
    "day average response: %.1f ms, worst window: %.1f ms, reallocations: \
     %d, total data moved: %.0f MB@."
    (summary.Autoscaler.avg_response *. 1000.)
    (summary.Autoscaler.max_response_window *. 1000.)
    summary.Autoscaler.reallocations summary.Autoscaler.total_transfer_mb;
  Common.header "Fig 6: query class mix over a day (requests/10min)";
  let mix = fig6 ~step_minutes:120. () in
  Fmt.pr "%8s" "hour";
  List.iter (fun (id, _) -> Fmt.pr "%10s" id) (snd (List.hd mix));
  Fmt.pr "@.";
  List.iter
    (fun (hour, shares) ->
      Fmt.pr "%8.1f" hour;
      List.iter (fun (_, v) -> Fmt.pr "%10.0f" v) shares;
      Fmt.pr "@.")
    mix;
  Common.header "Sec. 5: history segmentation and merged allocation";
  let segments, nodes = segmentation_demo () in
  List.iteri
    (fun i (a, b) -> Fmt.pr "segment %d: %05.2fh - %05.2fh@." (i + 1) a b)
    segments;
  Fmt.pr "merged allocation spans %d backends@." nodes
