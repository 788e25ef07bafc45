module Tel = Cdbs_telemetry
module Core = Cdbs_core

type guardrails = {
  max_p99_ratio : float;
  abs_p99_s : float;
  min_availability : float;
}

(* ratio 1.5, no absolute ceiling, availability floor 0.9. *)
let default_guardrails =
  { max_p99_ratio = 1.5; abs_p99_s = infinity; min_availability = 0.9 }

type config = {
  detector : Drift.config;
  guardrails : guardrails;
  min_samples : float;
  margin : float;
  budget : int;
  canary_windows : int;
  half_life_windows : float;
  k : int;
}

let default =
  {
    detector = Drift.default;
    guardrails = default_guardrails;
    min_samples = 100.;
    margin = 0.02;
    budget = 64;
    canary_windows = 1;
    half_life_windows = 3.;
    k = 0;
  }

type directive =
  | Stay
  | Cutover of { id : int; next : Core.Allocation.t; moved_mb : float }
  | Rollback of { id : int; prev : Core.Allocation.t }

type phase =
  | Observing
  | Canary of {
      id : int;
      prev : Core.Allocation.t;
      baseline_p99 : float;
      mutable windows_left : int;
    }

type t = {
  cfg : config;
  sink : Tel.Sink.t;
  est : Estimator.t;
  det : Drift.t;
  mutable alloc : Core.Allocation.t;
  mutable phase : phase;
  mutable next_id : int;
  mutable reallocations : int;
  mutable rollbacks : int;
  mutable commits : int;
  mutable peak_score : float;
}

let validate_config c =
  (* [Drift.create] validates the detector sub-config. *)
  if
    not
      (c.guardrails.max_p99_ratio >= 1.
      && c.guardrails.abs_p99_s > 0.
      && c.guardrails.min_availability >= 0.
      && c.guardrails.min_availability <= 1.
      && c.min_samples >= 0. && c.margin >= 0. && c.margin < 1.
      && c.budget >= 0 && c.canary_windows >= 1 && c.k >= 0)
  then invalid_arg "Loop: invalid config"

let create ?(config = default) ~sink ~allocation () =
  validate_config config;
  let est = Estimator.create ~half_life_windows:config.half_life_windows () in
  ignore (Estimator.attach est sink);
  Tel.Trace.push sink.Tel.Sink.trace
    (Control_session
       {
         at = 0.;
         threshold = config.detector.Drift.threshold;
         hysteresis = config.detector.Drift.hysteresis;
         cooldown_s = config.detector.Drift.cooldown_s;
         canary_windows = config.canary_windows;
       });
  {
    cfg = config;
    sink;
    est;
    det = Drift.create config.detector;
    alloc = allocation;
    phase = Observing;
    next_id = 1;
    reallocations = 0;
    rollbacks = 0;
    commits = 0;
    peak_score = 0.;
  }

let reallocations t = t.reallocations
let rollbacks t = t.rollbacks
let commits t = t.commits
let peak_score t = t.peak_score
let migrating t = match t.phase with Canary _ -> true | Observing -> false
let detach t = Estimator.detach t.est t.sink

let set_allocation t alloc =
  if migrating t then
    invalid_arg "Loop.set_allocation: a reallocation is in flight";
  t.alloc <- alloc

let ev t e = Tel.Trace.push t.sink.Tel.Sink.trace e

let read_mix (w : Core.Workload.t) =
  List.map
    (fun c -> (c.Core.Query_class.id, c.Core.Query_class.weight))
    w.Core.Workload.reads

(* Reweight deltas from current → merged read weights.  Dense class
   indices follow [Workload.all_classes] order (reads first), which is
   exactly the order [merge_into] preserves. *)
let reweights ~current ~merged =
  let deltas = ref [] in
  List.iteri
    (fun i (c : Core.Query_class.t) ->
      let m = List.nth merged.Core.Workload.reads i in
      if Float.abs (m.Core.Query_class.weight -. c.Core.Query_class.weight)
         > 1e-9
      then
        deltas :=
          Core.Incremental.Reweight
            { cls = i; weight = m.Core.Query_class.weight }
          :: !deltas)
    current.Core.Workload.reads;
  List.rev !deltas

(* Plan a guarded reallocation: repair under a bounded budget, reject
   unless diagnostic-clean AND the modeled cost beats the incumbent (the
   same reweights applied without moving data) by the margin. *)
let plan t ~at ~merged =
  let current = Core.Allocation.workload t.alloc in
  let deltas = reweights ~current ~merged in
  if deltas = [] then None
  else begin
    (* The repair consumes its input, so each runs on a copy. *)
    let state = Core.Allocation.state t.alloc in
    let incumbent, _ =
      Core.Incremental.repair ~k:t.cfg.k (Core.Dense.copy state) deltas
    in
    let candidate, stats =
      Core.Incremental.repair ~k:t.cfg.k ~budget:t.cfg.budget ~balance:true
        (Core.Dense.copy state) deltas
    in
    let cost_before = Core.Dense.scale incumbent in
    let cost_after = Core.Dense.scale candidate in
    let clean =
      Cdbs_analysis.Diagnostic.errors
        (Cdbs_analysis.Check_allocation.check_dense ~k:t.cfg.k candidate)
      = []
    in
    let wins = cost_after <= cost_before *. (1. -. t.cfg.margin) in
    let accepted = clean && wins in
    ev t
      (Control_plan
         {
           at;
           accepted;
           clean;
           cost_before;
           cost_after;
           moved_mb = stats.Core.Incremental.moved_mb;
           moved_fragments = stats.Core.Incremental.moved_fragments;
         });
    if accepted then
      Some
        ( Core.Allocation.with_state t.alloc candidate,
          stats.Core.Incremental.moved_mb )
    else None
  end

let observe_window t ~at ~p99_s ~availability =
  Estimator.end_window t.est;
  match t.phase with
  | Canary c ->
      let g = t.cfg.guardrails in
      let breach =
        if availability < g.min_availability then
          Some ("availability", availability, g.min_availability)
        else if p99_s > c.baseline_p99 *. g.max_p99_ratio then
          Some ("p99_ratio", p99_s, c.baseline_p99 *. g.max_p99_ratio)
        else if p99_s > g.abs_p99_s then Some ("p99_s", p99_s, g.abs_p99_s)
        else None
      in
      (match breach with
      | Some (metric, value, limit) ->
          ev t (Control_breach { at; id = c.id; metric; value; limit });
          ev t (Control_rollback { at; id = c.id });
          Drift.action_done t.det ~now:at;
          t.alloc <- c.prev;
          t.rollbacks <- t.rollbacks + 1;
          t.phase <- Observing;
          Rollback { id = c.id; prev = c.prev }
      | None ->
          c.windows_left <- c.windows_left - 1;
          if c.windows_left <= 0 then begin
            ev t (Control_commit { at; id = c.id });
            Drift.action_done t.det ~now:at;
            t.commits <- t.commits + 1;
            t.phase <- Observing
          end;
          Stay)
  | Observing ->
      if Estimator.samples t.est < t.cfg.min_samples then Stay
      else begin
        let assumed = read_mix (Core.Allocation.workload t.alloc) in
        let measured = Estimator.measured_mix t.est in
        let score = Drift.score ~assumed ~measured in
        t.peak_score <- max t.peak_score score;
        if not (Drift.update t.det ~now:at ~score) then Stay
        else begin
          ev t
            (Control_trigger
               {
                 at;
                 score;
                 threshold = t.cfg.detector.Drift.threshold;
                 cooldown_s = t.cfg.detector.Drift.cooldown_s;
               });
          let merged =
            Estimator.merge_into t.est (Core.Allocation.workload t.alloc)
          in
          match plan t ~at ~merged with
          | None ->
              (* Rejected plans start the cooldown too: without it the
                 same hopeless drift re-plans every single window. *)
              Drift.action_done t.det ~now:at;
              Stay
          | Some (next, moved_mb) ->
              let id = t.next_id in
              t.next_id <- t.next_id + 1;
              ev t (Control_reallocate_start { at; id; moved_mb });
              let prev = t.alloc in
              t.alloc <- next;
              t.reallocations <- t.reallocations + 1;
              t.phase <-
                Canary
                  {
                    id;
                    prev;
                    baseline_p99 = p99_s;
                    windows_left = t.cfg.canary_windows;
                  };
              Cutover { id; next; moved_mb }
        end
      end
