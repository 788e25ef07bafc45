module Trace = Cdbs_telemetry.Trace
module Sink = Cdbs_telemetry.Sink

type cls_stat = { mutable count : float; mutable service_s : float }

type t = {
  decay : float;
  win : (string, cls_stat) Hashtbl.t;
  agg : (string, cls_stat) Hashtbl.t;
  mutable attachments : (Trace.t * Trace.subscription) list;
}

let create ?(half_life_windows = 3.) () =
  if not (Float.is_finite half_life_windows) || half_life_windows <= 0. then
    invalid_arg "Estimator.create: half_life_windows must be positive";
  {
    decay = 0.5 ** (1. /. half_life_windows);
    win = Hashtbl.create 16;
    agg = Hashtbl.create 16;
    attachments = [];
  }

let stat_of tbl id =
  match Hashtbl.find_opt tbl id with
  | Some s -> s
  | None ->
      let s = { count = 0.; service_s = 0. } in
      Hashtbl.replace tbl id s;
      s

(* One event; [attach] subscribes this to a sink's trace. *)
let observe t (e : Trace.event) =
  match e with
  | Backend_serve { kind = Read cls; start; finish = fin; _ }
    when Float.is_finite start && Float.is_finite fin && fin >= start ->
      let s = stat_of t.win cls in
      s.count <- s.count +. 1.;
      s.service_s <- s.service_s +. (fin -. start)
  | _ -> ()

let attach t (sink : Sink.t) =
  let trace = sink.Sink.trace in
  if List.exists (fun (tr, _) -> tr == trace) t.attachments then false
  else begin
    let sub = Trace.subscribe trace (fun e -> observe t e) in
    t.attachments <- (trace, sub) :: t.attachments;
    true
  end

let detach t (sink : Sink.t) =
  let trace = sink.Sink.trace in
  match List.find_opt (fun (tr, _) -> tr == trace) t.attachments with
  | None -> ()
  | Some (_, sub) ->
      Trace.unsubscribe trace sub;
      t.attachments <- List.filter (fun (tr, _) -> tr != trace) t.attachments

let end_window t =
  Hashtbl.iter
    (fun id s ->
      let a = stat_of t.agg id in
      a.count <- (a.count *. t.decay) +. s.count;
      a.service_s <- (a.service_s *. t.decay) +. s.service_s)
    t.win;
  (* Classes absent from this window still decay, so a class that stops
     arriving fades out instead of holding its stale share forever. *)
  Hashtbl.iter
    (fun id a ->
      if not (Hashtbl.mem t.win id) then begin
        a.count <- a.count *. t.decay;
        a.service_s <- a.service_s *. t.decay
      end)
    t.agg;
  Hashtbl.reset t.win

let samples t =
  Hashtbl.fold (fun _ s acc -> acc +. s.count) t.agg 0.

(* Mix shares are service-time mass, not raw counts: workload weights
   are cost shares, and a cheap class served often would otherwise read
   as drift against an allocation that models it correctly. *)
let measured_mix t =
  let total =
    Hashtbl.fold (fun _ s acc -> acc +. s.service_s) t.agg 0.
  in
  if total <= 0. then []
  else
    Hashtbl.fold (fun id s acc -> (id, s.service_s /. total) :: acc) t.agg []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Samples worth as much as the static weights. *)
let prior_strength = 50.

let merge_into t (w : Cdbs_core.Workload.t) =
  let total = samples t in
  if total <= 0. then w
  else begin
    let lambda = total /. (total +. prior_strength) in
    let read_mass =
      List.fold_left
        (fun acc c -> acc +. c.Cdbs_core.Query_class.weight)
        0. w.Cdbs_core.Workload.reads
    in
    if read_mass <= 0. then w
    else begin
      (* Measured shares over the workload's own read classes only:
         trace classes the workload does not know cannot be placed. *)
      let measured =
        List.map
          (fun c ->
            match Hashtbl.find_opt t.agg c.Cdbs_core.Query_class.id with
            | Some s -> s.service_s
            | None -> 0.)
          w.Cdbs_core.Workload.reads
      in
      let m_total = List.fold_left ( +. ) 0. measured in
      if m_total <= 0. then w
      else
        let reads =
          List.map2
            (fun c m ->
              let assumed_share = c.Cdbs_core.Query_class.weight /. read_mass in
              let measured_share = m /. m_total in
              let share =
                (lambda *. measured_share) +. ((1. -. lambda) *. assumed_share)
              in
              { c with Cdbs_core.Query_class.weight = read_mass *. share })
            w.Cdbs_core.Workload.reads measured
        in
        Cdbs_core.Workload.make ~reads ~updates:w.Cdbs_core.Workload.updates
    end
  end
