module Trace = Cdbs_telemetry.Trace
module Sink = Cdbs_telemetry.Sink

(* Per-run protocol view of one backend.  [Stale] is up-but-catching-up:
   it takes updates and replay work, but must not serve reads.
   [Partitioned] is isolated by a network partition: no work of any kind
   may be booked on it.  [Fenced] is healed-but-not-caught-up: like
   [Stale], but the rejoin is guarded by a monotonic epoch token and must
   end with an explicit ["backend.fence_lift"]. *)
type backend_state = Up | Down | Stale | Partitioned | Fenced

type t = {
  (* Accumulated findings, newest first; [per_code] caps how many are
     kept verbatim so a systematically corrupted trace cannot blow up
     the report. *)
  mutable diags : Diagnostic.t list;
  per_code : (string, int) Hashtbl.t;
  mutable errors : int;
  mutable seen : int;
  (* Per-run protocol state, reset at every ["run.start"]. *)
  backends : (int, backend_state) Hashtbl.t;
  breakers : (int, Trace.breaker_state) Hashtbl.t;
  retries : (int, int * float) Hashtbl.t;  (* uid -> last attempt, remaining *)
  hedges : (int, unit) Hashtbl.t;  (* uids with an armed, unconsumed hedge *)
  spans : (string, int) Hashtbl.t;  (* base name -> starts - ends *)
  floors : (string, int) Hashtbl.t;  (* class id -> migration replica floor *)
  epochs : (int, int) Hashtbl.t;  (* backend -> fencing epoch of last heal *)
  (* Control-loop state.  A control session spans many windows — each of
     which is its own simulator run emitting ["run.start"] — so these
     fields survive [reset_run] and reset only at ["control.session"]. *)
  mutable ctl_active : int option;  (* reallocation id in flight *)
  mutable ctl_breach : bool;  (* guardrail breach seen since realloc start *)
  mutable ctl_last_action : float;  (* time of last commit/rollback *)
  mutable attachments : (Trace.t * Trace.subscription) list;
}

let max_kept_per_code = 50

let create () =
  {
    diags = [];
    per_code = Hashtbl.create 8;
    errors = 0;
    seen = 0;
    backends = Hashtbl.create 8;
    breakers = Hashtbl.create 8;
    retries = Hashtbl.create 64;
    hedges = Hashtbl.create 16;
    spans = Hashtbl.create 8;
    floors = Hashtbl.create 8;
    epochs = Hashtbl.create 8;
    ctl_active = None;
    ctl_breach = false;
    ctl_last_action = neg_infinity;
    attachments = [];
  }

let add t (d : Diagnostic.t) =
  let n = try Hashtbl.find t.per_code d.Diagnostic.code with Not_found -> 0 in
  Hashtbl.replace t.per_code d.Diagnostic.code (n + 1);
  if d.Diagnostic.severity = Diagnostic.Error then t.errors <- t.errors + 1;
  if n < max_kept_per_code then t.diags <- d :: t.diags
  else if n = max_kept_per_code then
    t.diags <-
      Diagnostic.info ~code:d.Diagnostic.code ~subject:"monitor"
        "further %s diagnostics suppressed after %d occurrences"
        d.Diagnostic.code max_kept_per_code
      :: t.diags

let reset_run t =
  Hashtbl.reset t.backends;
  Hashtbl.reset t.breakers;
  Hashtbl.reset t.retries;
  Hashtbl.reset t.hedges;
  Hashtbl.reset t.spans;
  Hashtbl.reset t.floors;
  Hashtbl.reset t.epochs

(* Every [backend.serve] asks, and most backends are absent (Up): a miss
   must not raise. *)
let state t b =
  match Hashtbl.find_opt t.backends b with Some s -> s | None -> Up

let breaker_state t b =
  try Hashtbl.find t.breakers b with Not_found -> Trace.Closed

let bsub b = Printf.sprintf "backend B%d" (b + 1)

(* ------------------------------------------------------------------ *)
(* The invariant library                                                *)
(* ------------------------------------------------------------------ *)

let on_crash t ~at b =
  (match state t b with
  | Down | Partitioned ->
      add t
        (Diagnostic.error ~code:"TRC001" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num at) ]
           "crash at %g of a backend that is already out of service" at)
  | Up | Stale | Fenced -> ());
  Hashtbl.replace t.backends b Down

let on_recover t ~at b ~replay_mb =
  (match state t b with
  | Down -> ()
  | Partitioned ->
      add t
        (Diagnostic.error ~code:"TRC013" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num at) ]
           "partitioned backend rejoined at %g via plain recovery, \
            bypassing the heal fence"
           at)
  | Up | Stale | Fenced ->
      add t
        (Diagnostic.error ~code:"TRC002" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num at) ]
           "recovery at %g of a backend that is not down" at));
  Hashtbl.replace t.backends b (if replay_mb > 0. then Stale else Up)

let on_catchup_done t ~at b =
  (match state t b with
  | Stale -> ()
  | Fenced ->
      add t
        (Diagnostic.error ~code:"TRC015" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num at) ]
           "fenced backend finished catch-up at %g without lifting its \
            fence (expected backend.fence_lift)"
           at)
  | Up | Down | Partitioned ->
      add t
        (Diagnostic.error ~code:"TRC005" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num at) ]
           "catch-up completion at %g with no catch-up pending" at));
  if state t b = Stale then Hashtbl.replace t.backends b Up

let on_partition t ~at b =
  (match state t b with
  | Down ->
      add t
        (Diagnostic.error ~code:"TRC013" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num at) ]
           "partition at %g of a backend that is already down" at)
  | Partitioned ->
      add t
        (Diagnostic.error ~code:"TRC013" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num at) ]
           "partition at %g of a backend that is already partitioned" at)
  | Up | Stale | Fenced -> ());
  Hashtbl.replace t.backends b Partitioned

let epoch_of t b = try Hashtbl.find t.epochs b with Not_found -> 0

let on_heal t ~at b ~epoch:ep =
  (match state t b with
  | Partitioned -> ()
  | Up | Down | Stale | Fenced ->
      add t
        (Diagnostic.error ~code:"TRC013" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num at) ]
           "heal at %g of a backend that is not partitioned" at));
  let prev = epoch_of t b in
  if ep <= prev then
    add t
      (Diagnostic.error ~code:"TRC014" ~subject:(bsub b)
         ~data:
           [
             ("at", Diagnostic.Num at);
             ("epoch", Diagnostic.Int ep);
             ("previous", Diagnostic.Int prev);
           ]
         "heal at %g carries epoch %d, not above the previous epoch %d \
          (fencing tokens must be monotonic)"
         at ep prev);
  Hashtbl.replace t.epochs b ep;
  (* Healed backends are fenced until an explicit fence_lift, however
     little they missed — the lift may share the heal's timestamp. *)
  Hashtbl.replace t.backends b Fenced

let on_fence_lift t ~at b ~epoch:ep =
  (match state t b with
  | Fenced -> ()
  | Up | Down | Stale | Partitioned ->
      add t
        (Diagnostic.error ~code:"TRC015" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num at) ]
           "fence lift at %g of a backend that is not fenced" at));
  let heal_ep = epoch_of t b in
  if ep <> heal_ep then
    add t
      (Diagnostic.error ~code:"TRC014" ~subject:(bsub b)
         ~data:
           [
             ("at", Diagnostic.Num at);
             ("epoch", Diagnostic.Int ep);
             ("heal_epoch", Diagnostic.Int heal_ep);
           ]
         "fence lift at %g carries epoch %d, but the heal minted epoch %d" at
         ep heal_ep);
  if state t b = Fenced then Hashtbl.replace t.backends b Up

let legal_breaker_hop (from : Trace.breaker_state) (to_ : Trace.breaker_state)
    =
  match (from, to_) with
  | Closed, Open | Open, Half_open | Half_open, (Closed | Open) -> true
  | (Closed | Open | Half_open), _ -> false

let on_breaker t ~at b to_ =
  let from = breaker_state t b in
  if not (legal_breaker_hop from to_) then begin
    let from = Trace.breaker_label from and to_ = Trace.breaker_label to_ in
    add t
      (Diagnostic.error ~code:"TRC004" ~subject:(bsub b)
         ~data:
           [
             ("at", Diagnostic.Num at);
             ("from", Diagnostic.Str from);
             ("to", Diagnostic.Str to_);
           ]
         "breaker transition %s -> %s at %g is off the legal \
          Closed -> Open -> Half-open graph"
         from to_ at)
  end;
  Hashtbl.replace t.breakers b to_

let on_serve t ~at b kind ~start ~finish =
  (match (state t b, kind) with
  | Up, _ -> ()
  | Down, _ ->
      let kind = Trace.serve_label kind in
      add t
        (Diagnostic.error ~code:"TRC003" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num at); ("kind", Diagnostic.Str kind) ]
           "%s work booked at %g on a crashed backend" kind at)
  | Partitioned, _ ->
      let kind = Trace.serve_label kind in
      add t
        (Diagnostic.error ~code:"TRC013" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num at); ("kind", Diagnostic.Str kind) ]
           "%s work booked at %g on a partitioned backend (nothing may \
            reach an isolated node)"
           kind at)
  | Fenced, Trace.Read _ ->
      add t
        (Diagnostic.error ~code:"TRC015" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num at) ]
           "read served at %g on a fenced backend (stale serve after a \
            partition heal: split-brain)"
           at)
  | Stale, Trace.Read _ ->
      add t
        (Diagnostic.error ~code:"TRC005" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num at) ]
           "read served at %g on a stale backend (rejoin not gated on \
            catch-up)"
           at)
  | (Fenced | Stale), (Trace.Update | Trace.Catchup) -> ());
  if finish < start then
    add t
      (Diagnostic.error ~code:"TRC011" ~subject:(bsub b)
         ~data:
           [ ("start", Diagnostic.Num start); ("finish", Diagnostic.Num finish) ]
         "service interval finishes at %g before it starts at %g" finish start)

let on_request_retry t ~at ~uid ~attempt ~retry_at ~remaining_s =
  let subject = Printf.sprintf "request #%d" uid in
  let remaining = Option.value remaining_s ~default:nan in
  if retry_at < at then
    add t
      (Diagnostic.error ~code:"TRC007" ~subject
         ~data:
           [ ("at", Diagnostic.Num at); ("retry_at", Diagnostic.Num retry_at) ]
         "retry scheduled at %g, before the failure at %g" retry_at at);
  (if attempt < 1 then
     add t
       (Diagnostic.error ~code:"TRC007" ~subject
          ~data:[ ("attempt", Diagnostic.Int attempt) ]
          "retry carries attempt %d (first retry is attempt 1)" attempt));
  (match Hashtbl.find_opt t.retries uid with
  | None -> ()
  | Some (prev_attempt, prev_remaining) ->
      if attempt <= prev_attempt then
        add t
          (Diagnostic.error ~code:"TRC007" ~subject
             ~data:
               [
                 ("attempt", Diagnostic.Int attempt);
                 ("previous", Diagnostic.Int prev_attempt);
               ]
             "attempt counter went %d -> %d across retries" prev_attempt
             attempt);
      if
        (not (Float.is_nan remaining))
        && (not (Float.is_nan prev_remaining))
        && remaining >= prev_remaining
      then
        add t
          (Diagnostic.error ~code:"TRC007" ~subject
             ~data:
               [
                 ("remaining_s", Diagnostic.Num remaining);
                 ("previous_s", Diagnostic.Num prev_remaining);
               ]
             "deadline budget grew %g s -> %g s across retries (budgets \
              must be monotonically decreasing)"
             prev_remaining remaining));
  Hashtbl.replace t.retries uid (attempt, remaining)

let on_hedge_armed t ~at ~uid ~fire_at =
  if fire_at < at then
    add t
      (Diagnostic.error ~code:"TRC009"
         ~subject:(Printf.sprintf "request #%d" uid)
         ~data:
           [ ("at", Diagnostic.Num at); ("fire_at", Diagnostic.Num fire_at) ]
         "hedge armed at %g to fire in the past at %g" at fire_at);
  Hashtbl.replace t.hedges uid ()

let on_hedge_win t ~at ~uid =
  if Hashtbl.mem t.hedges uid then Hashtbl.remove t.hedges uid
  else
    add t
      (Diagnostic.error ~code:"TRC009"
         ~subject:(Printf.sprintf "request #%d" uid)
         ~data:[ ("at", Diagnostic.Num at) ]
         "hedge win at %g with no armed hedge for this request" at)

let on_summary t ~offered ~completed ~aborted ~shed ~timeouts ~hedged
    ~hedge_wins ~offered_updates ~completed_updates =
  let conservation cond fmt =
    Printf.ksprintf
      (fun msg ->
        if not cond then
          add t
            (Diagnostic.error ~code:"TRC008" ~subject:"run"
               ~data:
                 [
                   ("offered", Diagnostic.Int offered);
                   ("completed", Diagnostic.Int completed);
                   ("aborted", Diagnostic.Int aborted);
                   ("shed", Diagnostic.Int shed);
                 ]
               "%s" msg))
      fmt
  in
  conservation
    (completed + aborted = offered)
    "conservation broken: completed %d + aborted %d <> offered %d" completed
    aborted offered;
  conservation (shed <= aborted)
    "shed %d exceeds aborted %d (every shed is an abort)" shed aborted;
  conservation (timeouts <= aborted)
    "timeouts %d exceed aborted %d (every timeout is an abort)" timeouts
    aborted;
  conservation
    (completed_updates <= offered_updates)
    "completed updates %d exceed offered updates %d" completed_updates
    offered_updates;
  if hedge_wins > hedged then
    add t
      (Diagnostic.error ~code:"TRC009" ~subject:"run"
         ~data:
           [
             ("hedged", Diagnostic.Int hedged);
             ("hedge_wins", Diagnostic.Int hedge_wins);
           ]
         "hedge wins %d exceed hedges issued %d" hedge_wins hedged)

let on_migration_live t ~at cls replicas =
  match Hashtbl.find_opt t.floors cls with
  | Some floor when replicas < floor ->
      add t
        (Diagnostic.error ~code:"TRC006" ~subject:("class " ^ cls)
           ~data:
             [
               ("at", Diagnostic.Num at);
               ("replicas", Diagnostic.Int replicas);
               ("floor", Diagnostic.Int floor);
             ]
           "live replicas fell to %d at %g, below the expand-then-contract \
            floor of %d"
           replicas at floor)
  | _ -> ()

(* --- Control loop (TRC016/TRC017/TRC018) --------------------------- *)

let on_control_session t =
  t.ctl_active <- None;
  t.ctl_breach <- false;
  t.ctl_last_action <- neg_infinity

let on_control_trigger t ~at ~cooldown_s =
  (match t.ctl_active with
  | Some id ->
      add t
        (Diagnostic.error ~code:"TRC016" ~subject:"control"
           ~data:[ ("at", Diagnostic.Num at); ("in_flight", Diagnostic.Int id) ]
           "drift trigger at %g while reallocation %d is still in flight" at id)
  | None -> ());
  if at < t.ctl_last_action +. cooldown_s then
    add t
      (Diagnostic.error ~code:"TRC017" ~subject:"control"
         ~data:
           [
             ("at", Diagnostic.Num at);
             ("last_action", Diagnostic.Num t.ctl_last_action);
             ("cooldown_s", Diagnostic.Num cooldown_s);
           ]
         "drift trigger at %g inside the post-action cooldown (last action \
          %g + cooldown %g s)"
         at t.ctl_last_action cooldown_s)

let on_control_realloc_start t ~at id =
  (match t.ctl_active with
  | Some prev ->
      add t
        (Diagnostic.error ~code:"TRC016" ~subject:"control"
           ~data:
             [
               ("at", Diagnostic.Num at);
               ("id", Diagnostic.Int id);
               ("in_flight", Diagnostic.Int prev);
             ]
           "reallocation %d started at %g while reallocation %d is still in \
            flight"
           id at prev)
  | None -> ());
  t.ctl_active <- Some id;
  t.ctl_breach <- false

let on_control_breach t = if t.ctl_active <> None then t.ctl_breach <- true

let ctl_finish t ~at id ~what ~needs_breach =
  (match t.ctl_active with
  | None ->
      add t
        (Diagnostic.error ~code:"TRC016" ~subject:"control"
           ~data:[ ("at", Diagnostic.Num at); ("id", Diagnostic.Int id) ]
           "%s of reallocation %d at %g with no reallocation in flight" what
           id at)
  | Some active when active <> id ->
      add t
        (Diagnostic.error ~code:"TRC016" ~subject:"control"
           ~data:
             [
               ("at", Diagnostic.Num at);
               ("id", Diagnostic.Int id);
               ("in_flight", Diagnostic.Int active);
             ]
           "%s names reallocation %d at %g but reallocation %d is in flight"
           what id at active)
  | Some _ -> ());
  if needs_breach && not t.ctl_breach then
    add t
      (Diagnostic.error ~code:"TRC018" ~subject:"control"
         ~data:[ ("at", Diagnostic.Num at); ("id", Diagnostic.Int id) ]
         "rollback of reallocation %d at %g with no guardrail breach since \
          it started"
         id at);
  t.ctl_active <- None;
  t.ctl_breach <- false;
  t.ctl_last_action <- at

(* Span pairing is name-suffix driven, so it covers user spans as well
   as engine events.  Unclosed spans are deliberately not flagged:
   experiment-level events such as ["migration.start"] legitimately have
   no matching end. *)
let span_opened t base =
  let n = try Hashtbl.find t.spans base with Not_found -> 0 in
  Hashtbl.replace t.spans base (n + 1)

let on_custom t ~at name attrs =
  if Filename.check_suffix name ".start" then
    span_opened t (Filename.chop_suffix name ".start")
  else if Filename.check_suffix name ".end" then begin
    let base = Filename.chop_suffix name ".end" in
    let n = try Hashtbl.find t.spans base with Not_found -> 0 in
    if n <= 0 then
      add t
        (Diagnostic.error ~code:"TRC010" ~subject:("span " ^ base)
           ~data:[ ("at", Diagnostic.Num at) ]
           "span end at %g without a matching start" at)
    else Hashtbl.replace t.spans base (n - 1);
    match List.assoc_opt "duration_s" attrs with
    | Some (Trace.Float d) when d < 0. ->
        add t
          (Diagnostic.error ~code:"TRC010" ~subject:("span " ^ base)
             ~data:[ ("duration_s", Diagnostic.Num d) ]
             "span closed with negative duration %g s" d)
    | _ -> ()
  end

let observe t e =
  t.seen <- t.seen + 1;
  let at = Trace.at e in
  if (not (Float.is_finite at)) || at < 0. then
    add t
      (Diagnostic.error ~code:"TRC011" ~subject:("event " ^ Trace.name e)
         ~data:[ ("at", Diagnostic.Num at) ]
         "event carries a non-finite or negative timestamp %g" at);
  match e with
  | Backend_serve { at; backend; kind; start; finish } ->
      on_serve t ~at backend kind ~start ~finish
  | Run_start _ -> reset_run t
  | Backend_crash { at; backend } -> on_crash t ~at backend
  | Backend_recover { at; backend; replay_mb } ->
      on_recover t ~at backend ~replay_mb
  | Backend_catchup_done { at; backend } -> on_catchup_done t ~at backend
  | Backend_partition { at; backend } -> on_partition t ~at backend
  | Backend_heal { at; backend; epoch; _ } -> on_heal t ~at backend ~epoch
  | Backend_fence_lift { at; backend; epoch } ->
      on_fence_lift t ~at backend ~epoch
  | Breaker_transition { at; backend; state } -> on_breaker t ~at backend state
  | Request_retry { at; uid; attempt; retry_at; remaining_s } ->
      on_request_retry t ~at ~uid ~attempt ~retry_at ~remaining_s
  | Request_hedge_armed { at; uid; fire_at; _ } ->
      on_hedge_armed t ~at ~uid ~fire_at
  | Request_hedge_win { at; uid; _ } -> on_hedge_win t ~at ~uid
  | Run_summary
      {
        offered; completed; aborted; shed; timeouts; hedged; hedge_wins;
        offered_updates; completed_updates; _;
      } ->
      on_summary t ~offered ~completed ~aborted ~shed ~timeouts ~hedged
        ~hedge_wins ~offered_updates ~completed_updates
  | Migration_floor { cls; floor; _ } -> Hashtbl.replace t.floors cls floor
  | Migration_live { at; cls; replicas } -> on_migration_live t ~at cls replicas
  | Control_session _ -> on_control_session t
  | Control_trigger { at; cooldown_s; _ } ->
      on_control_trigger t ~at ~cooldown_s
  | Control_reallocate_start { at; id; _ } ->
      (* The name ends in ".start": it opens a span like a custom one. *)
      span_opened t "control.reallocate";
      on_control_realloc_start t ~at id
  | Control_breach _ -> on_control_breach t
  | Control_rollback { at; id } ->
      ctl_finish t ~at id ~what:"rollback" ~needs_breach:true
  | Control_commit { at; id } ->
      ctl_finish t ~at id ~what:"commit" ~needs_breach:false
  | Custom { at; name; attrs } -> on_custom t ~at name attrs
  | Backend_slowdown _ | Zone_outage _ | Zone_heal _ | Workload_shift _
  | Request_shed _ | Control_plan _ ->
      (* No rule reads these yet; naming them keeps the match exhaustive. *)
      ()

(* ------------------------------------------------------------------ *)
(* Attachment                                                           *)
(* ------------------------------------------------------------------ *)

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

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)
(* ------------------------------------------------------------------ *)

let events_seen t = t.seen
let violations t = t.errors
let clean t = t.errors = 0

let report t =
  let overflow =
    List.filter_map
      (fun (trace, _) ->
        let d = Trace.dropped trace in
        if d > 0 then
          Some
            (Diagnostic.warning ~code:"TRC012" ~subject:"trace"
               ~data:
                 [
                   ("dropped", Diagnostic.Int d);
                   ("retained", Diagnostic.Int (Trace.length trace));
                 ]
               "trace ring overflowed: %d events evicted (the monitor saw \
                every event; ring consumers saw a suffix)"
               d)
        else None)
      t.attachments
  in
  Diagnostic.sort (overflow @ List.rev t.diags)

let check_exn ~context t =
  if t.errors > 0 then
    failwith
      (Fmt.str "%s: protocol monitor found %d violation(s)@\n%a" context
         t.errors Diagnostic.pp_report (report t))
