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
  breakers : (int, string) Hashtbl.t;
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

let state t b = try Hashtbl.find t.backends b with Not_found -> Up
let breaker_state t b = try Hashtbl.find t.breakers b with Not_found -> "closed"

(* ------------------------------------------------------------------ *)
(* Attribute access; a protocol event missing a required attribute is   *)
(* itself a finding (TRC011), not a crash.                              *)
(* ------------------------------------------------------------------ *)

let attr (e : Trace.event) key =
  let rec find = function
    | [] -> None
    | (k, v) :: rest -> if String.equal k key then Some v else find rest
  in
  find e.Trace.attrs

let missing t (e : Trace.event) key =
  add t
    (Diagnostic.warning ~code:"TRC011" ~subject:("event " ^ e.Trace.name)
       ~data:[ ("at", Diagnostic.Num e.Trace.at) ]
       "protocol event lacks required attribute %S" key)

let int_attr t e key k =
  match attr e key with
  | Some (Trace.Int i) -> k i
  | _ -> missing t e key

let str_attr t e key k =
  match attr e key with Some (Trace.Str s) -> k s | _ -> missing t e key

let opt_float e key =
  match attr e key with Some (Trace.Float f) -> Some f | _ -> None

let float_attr t e key k =
  match attr e key with Some (Trace.Float f) -> k f | _ -> missing t e key

let bsub b = Printf.sprintf "backend B%d" (b + 1)

(* ------------------------------------------------------------------ *)
(* The invariant library                                                *)
(* ------------------------------------------------------------------ *)

let on_crash t (e : Trace.event) =
  int_attr t e "backend" @@ fun b ->
  (match state t b with
  | Down | Partitioned ->
      add t
        (Diagnostic.error ~code:"TRC001" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num e.Trace.at) ]
           "crash at %g of a backend that is already out of service"
           e.Trace.at)
  | Up | Stale | Fenced -> ());
  Hashtbl.replace t.backends b Down

let on_recover t (e : Trace.event) =
  int_attr t e "backend" @@ fun b ->
  (match state t b with
  | Down -> ()
  | Partitioned ->
      add t
        (Diagnostic.error ~code:"TRC013" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num e.Trace.at) ]
           "partitioned backend rejoined at %g via plain recovery, \
            bypassing the heal fence"
           e.Trace.at)
  | Up | Stale | Fenced ->
      add t
        (Diagnostic.error ~code:"TRC002" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num e.Trace.at) ]
           "recovery at %g of a backend that is not down" e.Trace.at));
  let replay = match opt_float e "replay_mb" with Some m -> m | None -> 0. in
  Hashtbl.replace t.backends b (if replay > 0. then Stale else Up)

let on_catchup_done t (e : Trace.event) =
  int_attr t e "backend" @@ fun b ->
  (match state t b with
  | Stale -> ()
  | Fenced ->
      add t
        (Diagnostic.error ~code:"TRC015" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num e.Trace.at) ]
           "fenced backend finished catch-up at %g without lifting its \
            fence (expected backend.fence_lift)"
           e.Trace.at)
  | Up | Down | Partitioned ->
      add t
        (Diagnostic.error ~code:"TRC005" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num e.Trace.at) ]
           "catch-up completion at %g with no catch-up pending" e.Trace.at));
  if state t b = Stale then Hashtbl.replace t.backends b Up

let on_partition t (e : Trace.event) =
  int_attr t e "backend" @@ fun b ->
  (match state t b with
  | Down ->
      add t
        (Diagnostic.error ~code:"TRC013" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num e.Trace.at) ]
           "partition at %g of a backend that is already down" e.Trace.at)
  | Partitioned ->
      add t
        (Diagnostic.error ~code:"TRC013" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num e.Trace.at) ]
           "partition at %g of a backend that is already partitioned"
           e.Trace.at)
  | Up | Stale | Fenced -> ());
  Hashtbl.replace t.backends b Partitioned

let epoch_of t b = try Hashtbl.find t.epochs b with Not_found -> 0

let on_heal t (e : Trace.event) =
  int_attr t e "backend" @@ fun b ->
  int_attr t e "epoch" @@ fun ep ->
  (match state t b with
  | Partitioned -> ()
  | Up | Down | Stale | Fenced ->
      add t
        (Diagnostic.error ~code:"TRC013" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num e.Trace.at) ]
           "heal at %g of a backend that is not partitioned" e.Trace.at));
  let prev = epoch_of t b in
  if ep <= prev then
    add t
      (Diagnostic.error ~code:"TRC014" ~subject:(bsub b)
         ~data:
           [
             ("at", Diagnostic.Num e.Trace.at);
             ("epoch", Diagnostic.Int ep);
             ("previous", Diagnostic.Int prev);
           ]
         "heal at %g carries epoch %d, not above the previous epoch %d \
          (fencing tokens must be monotonic)"
         e.Trace.at ep prev);
  Hashtbl.replace t.epochs b ep;
  (* Healed backends are fenced until an explicit fence_lift, however
     little they missed — the lift may share the heal's timestamp. *)
  Hashtbl.replace t.backends b Fenced

let on_fence_lift t (e : Trace.event) =
  int_attr t e "backend" @@ fun b ->
  int_attr t e "epoch" @@ fun ep ->
  (match state t b with
  | Fenced -> ()
  | Up | Down | Stale | Partitioned ->
      add t
        (Diagnostic.error ~code:"TRC015" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num e.Trace.at) ]
           "fence lift at %g of a backend that is not fenced" e.Trace.at));
  let heal_ep = epoch_of t b in
  if ep <> heal_ep then
    add t
      (Diagnostic.error ~code:"TRC014" ~subject:(bsub b)
         ~data:
           [
             ("at", Diagnostic.Num e.Trace.at);
             ("epoch", Diagnostic.Int ep);
             ("heal_epoch", Diagnostic.Int heal_ep);
           ]
         "fence lift at %g carries epoch %d, but the heal minted epoch %d"
         e.Trace.at ep heal_ep);
  if state t b = Fenced then Hashtbl.replace t.backends b Up

let legal_breaker_hop from to_ =
  match (from, to_) with
  | "closed", "open" -> true
  | "open", "half_open" -> true
  | "half_open", ("closed" | "open") -> true
  | _ -> false

let on_breaker t (e : Trace.event) =
  int_attr t e "backend" @@ fun b ->
  str_attr t e "state" @@ fun to_ ->
  let from = breaker_state t b in
  if not (legal_breaker_hop from to_) then
    add t
      (Diagnostic.error ~code:"TRC004" ~subject:(bsub b)
         ~data:
           [
             ("at", Diagnostic.Num e.Trace.at);
             ("from", Diagnostic.Str from);
             ("to", Diagnostic.Str to_);
           ]
         "breaker transition %s -> %s at %g is off the legal \
          Closed -> Open -> Half-open graph"
         from to_ e.Trace.at);
  Hashtbl.replace t.breakers b to_

let on_serve t (e : Trace.event) =
  int_attr t e "backend" @@ fun b ->
  str_attr t e "kind" @@ fun kind ->
  (match state t b with
  | Down ->
      add t
        (Diagnostic.error ~code:"TRC003" ~subject:(bsub b)
           ~data:
             [
               ("at", Diagnostic.Num e.Trace.at);
               ("kind", Diagnostic.Str kind);
             ]
           "%s work booked at %g on a crashed backend" kind e.Trace.at)
  | Partitioned ->
      add t
        (Diagnostic.error ~code:"TRC013" ~subject:(bsub b)
           ~data:
             [
               ("at", Diagnostic.Num e.Trace.at);
               ("kind", Diagnostic.Str kind);
             ]
           "%s work booked at %g on a partitioned backend (nothing may \
            reach an isolated node)"
           kind e.Trace.at)
  | Fenced when String.equal kind "read" ->
      add t
        (Diagnostic.error ~code:"TRC015" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num e.Trace.at) ]
           "read served at %g on a fenced backend (stale serve after a \
            partition heal: split-brain)"
           e.Trace.at)
  | Stale when String.equal kind "read" ->
      add t
        (Diagnostic.error ~code:"TRC005" ~subject:(bsub b)
           ~data:[ ("at", Diagnostic.Num e.Trace.at) ]
           "read served at %g on a stale backend (rejoin not gated on \
            catch-up)"
           e.Trace.at)
  | _ -> ());
  match (opt_float e "start", opt_float e "finish") with
  | Some s, Some f when f < s ->
      add t
        (Diagnostic.error ~code:"TRC011" ~subject:(bsub b)
           ~data:
             [ ("start", Diagnostic.Num s); ("finish", Diagnostic.Num f) ]
           "service interval finishes at %g before it starts at %g" f s)
  | _ -> ()

let on_request_retry t (e : Trace.event) =
  int_attr t e "uid" @@ fun uid ->
  int_attr t e "attempt" @@ fun attempt ->
  let subject = Printf.sprintf "request #%d" uid in
  let remaining =
    match opt_float e "remaining_s" with Some r -> r | None -> nan
  in
  (match attr e "retry_at" with
  | Some (Trace.Float at) when at < e.Trace.at ->
      add t
        (Diagnostic.error ~code:"TRC007" ~subject
           ~data:
             [
               ("at", Diagnostic.Num e.Trace.at);
               ("retry_at", Diagnostic.Num at);
             ]
           "retry scheduled at %g, before the failure at %g" at e.Trace.at)
  | _ -> ());
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

let on_hedge_armed t (e : Trace.event) =
  int_attr t e "uid" @@ fun uid ->
  (match attr e "fire_at" with
  | Some (Trace.Float at) when at < e.Trace.at ->
      add t
        (Diagnostic.error ~code:"TRC009"
           ~subject:(Printf.sprintf "request #%d" uid)
           ~data:
             [
               ("at", Diagnostic.Num e.Trace.at);
               ("fire_at", Diagnostic.Num at);
             ]
           "hedge armed at %g to fire in the past at %g" e.Trace.at at)
  | _ -> ());
  Hashtbl.replace t.hedges uid ()

let on_hedge_win t (e : Trace.event) =
  int_attr t e "uid" @@ fun uid ->
  if Hashtbl.mem t.hedges uid then Hashtbl.remove t.hedges uid
  else
    add t
      (Diagnostic.error ~code:"TRC009"
         ~subject:(Printf.sprintf "request #%d" uid)
         ~data:[ ("at", Diagnostic.Num e.Trace.at) ]
         "hedge win at %g with no armed hedge for this request" e.Trace.at)

let on_summary t (e : Trace.event) =
  int_attr t e "offered" @@ fun offered ->
  int_attr t e "completed" @@ fun completed ->
  int_attr t e "aborted" @@ fun aborted ->
  int_attr t e "shed" @@ fun shed ->
  int_attr t e "timeouts" @@ fun timeouts ->
  int_attr t e "hedged" @@ fun hedged ->
  int_attr t e "hedge_wins" @@ fun hedge_wins ->
  int_attr t e "offered_updates" @@ fun offered_updates ->
  int_attr t e "completed_updates" @@ fun completed_updates ->
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

let on_migration_floor t (e : Trace.event) =
  str_attr t e "class" @@ fun cls ->
  int_attr t e "floor" @@ fun floor -> Hashtbl.replace t.floors cls floor

let on_migration_live t (e : Trace.event) =
  str_attr t e "class" @@ fun cls ->
  int_attr t e "replicas" @@ fun replicas ->
  match Hashtbl.find_opt t.floors cls with
  | Some floor when replicas < floor ->
      add t
        (Diagnostic.error ~code:"TRC006" ~subject:("class " ^ cls)
           ~data:
             [
               ("at", Diagnostic.Num e.Trace.at);
               ("replicas", Diagnostic.Int replicas);
               ("floor", Diagnostic.Int floor);
             ]
           "live replicas fell to %d at %g, below the expand-then-contract \
            floor of %d"
           replicas e.Trace.at floor)
  | _ -> ()

(* --- Control loop (TRC016/TRC017/TRC018) --------------------------- *)

let on_control_session t (_e : Trace.event) =
  t.ctl_active <- None;
  t.ctl_breach <- false;
  t.ctl_last_action <- neg_infinity

let on_control_trigger t (e : Trace.event) =
  (match t.ctl_active with
  | Some id ->
      add t
        (Diagnostic.error ~code:"TRC016" ~subject:"control"
           ~data:
             [
               ("at", Diagnostic.Num e.Trace.at);
               ("in_flight", Diagnostic.Int id);
             ]
           "drift trigger at %g while reallocation %d is still in flight"
           e.Trace.at id)
  | None -> ());
  float_attr t e "cooldown_s" @@ fun cooldown_s ->
  if e.Trace.at < t.ctl_last_action +. cooldown_s then
    add t
      (Diagnostic.error ~code:"TRC017" ~subject:"control"
         ~data:
           [
             ("at", Diagnostic.Num e.Trace.at);
             ("last_action", Diagnostic.Num t.ctl_last_action);
             ("cooldown_s", Diagnostic.Num cooldown_s);
           ]
         "drift trigger at %g inside the post-action cooldown (last action \
          %g + cooldown %g s)"
         e.Trace.at t.ctl_last_action cooldown_s)

let on_control_realloc_start t (e : Trace.event) =
  int_attr t e "id" @@ fun id ->
  (match t.ctl_active with
  | Some prev ->
      add t
        (Diagnostic.error ~code:"TRC016" ~subject:"control"
           ~data:
             [
               ("at", Diagnostic.Num e.Trace.at);
               ("id", Diagnostic.Int id);
               ("in_flight", Diagnostic.Int prev);
             ]
           "reallocation %d started at %g while reallocation %d is still in \
            flight"
           id e.Trace.at prev)
  | None -> ());
  t.ctl_active <- Some id;
  t.ctl_breach <- false

let on_control_breach t (_e : Trace.event) =
  if t.ctl_active <> None then t.ctl_breach <- true

let ctl_finish t (e : Trace.event) ~what ~needs_breach =
  int_attr t e "id" @@ fun id ->
  (match t.ctl_active with
  | None ->
      add t
        (Diagnostic.error ~code:"TRC016" ~subject:"control"
           ~data:
             [
               ("at", Diagnostic.Num e.Trace.at); ("id", Diagnostic.Int id);
             ]
           "%s of reallocation %d at %g with no reallocation in flight" what
           id e.Trace.at)
  | Some active when active <> id ->
      add t
        (Diagnostic.error ~code:"TRC016" ~subject:"control"
           ~data:
             [
               ("at", Diagnostic.Num e.Trace.at);
               ("id", Diagnostic.Int id);
               ("in_flight", Diagnostic.Int active);
             ]
           "%s names reallocation %d at %g but reallocation %d is in flight"
           what id e.Trace.at active)
  | Some _ -> ());
  if needs_breach && not t.ctl_breach then
    add t
      (Diagnostic.error ~code:"TRC018" ~subject:"control"
         ~data:
           [ ("at", Diagnostic.Num e.Trace.at); ("id", Diagnostic.Int id) ]
         "rollback of reallocation %d at %g with no guardrail breach since \
          it started"
         id e.Trace.at);
  t.ctl_active <- None;
  t.ctl_breach <- false;
  t.ctl_last_action <- e.Trace.at

let on_control_rollback t e = ctl_finish t e ~what:"rollback" ~needs_breach:true

let on_control_commit t e = ctl_finish t e ~what:"commit" ~needs_breach:false

(* Span pairing is purely name-suffix driven, so it covers user spans as
   well as engine events.  Unclosed spans are deliberately not flagged:
   experiment-level events such as ["migration.start"] legitimately have
   no matching end. *)
let on_span t (e : Trace.event) =
  let name = e.Trace.name in
  if Filename.check_suffix name ".start" then
    let base = Filename.chop_suffix name ".start" in
    let n = try Hashtbl.find t.spans base with Not_found -> 0 in
    Hashtbl.replace t.spans base (n + 1)
  else if Filename.check_suffix name ".end" then begin
    let base = Filename.chop_suffix name ".end" in
    let n = try Hashtbl.find t.spans base with Not_found -> 0 in
    if n <= 0 then
      add t
        (Diagnostic.error ~code:"TRC010" ~subject:("span " ^ base)
           ~data:[ ("at", Diagnostic.Num e.Trace.at) ]
           "span end at %g without a matching start" e.Trace.at)
    else Hashtbl.replace t.spans base (n - 1);
    match opt_float e "duration_s" with
    | Some d when d < 0. ->
        add t
          (Diagnostic.error ~code:"TRC010" ~subject:("span " ^ base)
             ~data:[ ("duration_s", Diagnostic.Num d) ]
             "span closed with negative duration %g s" d)
    | _ -> ()
  end

let observe t (e : Trace.event) =
  t.seen <- t.seen + 1;
  if (not (Float.is_finite e.Trace.at)) || e.Trace.at < 0. then
    add t
      (Diagnostic.error ~code:"TRC011" ~subject:("event " ^ e.Trace.name)
         ~data:[ ("at", Diagnostic.Num e.Trace.at) ]
         "event carries a non-finite or negative timestamp %g" e.Trace.at);
  on_span t e;
  match e.Trace.name with
  | "run.start" -> reset_run t
  | "backend.crash" -> on_crash t e
  | "backend.recover" -> on_recover t e
  | "backend.catchup_done" -> on_catchup_done t e
  | "backend.partition" -> on_partition t e
  | "backend.heal" -> on_heal t e
  | "backend.fence_lift" -> on_fence_lift t e
  | "backend.serve" -> on_serve t e
  | "breaker.transition" -> on_breaker t e
  | "request.retry" -> on_request_retry t e
  | "request.hedge_armed" -> on_hedge_armed t e
  | "request.hedge_win" -> on_hedge_win t e
  | "run.summary" -> on_summary t e
  | "migration.floor" -> on_migration_floor t e
  | "migration.live" -> on_migration_live t e
  | "control.session" -> on_control_session t e
  | "control.trigger" -> on_control_trigger t e
  | "control.reallocate.start" -> on_control_realloc_start t e
  | "control.breach" -> on_control_breach t e
  | "control.rollback" -> on_control_rollback t e
  | "control.commit" -> on_control_commit t e
  | _ -> ()

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
