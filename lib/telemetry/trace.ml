type value = Int of int | Float of float | Str of string | Bool of bool
type serve_kind = Read of string | Update | Catchup
type breaker_state = Closed | Open | Half_open
type shed_reason = Evicted_oldest | Refused_newcomer
type custom = { at : float; name : string; attrs : (string * value) list }

type event =
  | Run_start of { at : float; backends : int; offered : int }
  | Run_summary of {
      at : float;
      offered : int;
      completed : int;
      aborted : int;
      shed : int;
      timeouts : int;
      retries : int;
      hedged : int;
      hedge_wins : int;
      offered_updates : int;
      completed_updates : int;
    }
  | Backend_serve of {
      at : float;
      backend : int;
      kind : serve_kind;
      start : float;
      finish : float;
    }
  | Backend_crash of { at : float; backend : int }
  | Backend_recover of { at : float; backend : int; replay_mb : float }
  | Backend_catchup_done of { at : float; backend : int }
  | Backend_partition of { at : float; backend : int }
  | Backend_heal of {
      at : float;
      backend : int;
      epoch : int;
      replay_mb : float;
    }
  | Backend_fence_lift of { at : float; backend : int; epoch : int }
  | Backend_slowdown of {
      at : float;
      backend : int;
      factor : float;
      duration_s : float;
    }
  | Zone_outage of { at : float; zone : int; backends : int }
  | Zone_heal of { at : float; zone : int }
  | Workload_shift of { at : float; classes : int }
  | Breaker_transition of { at : float; backend : int; state : breaker_state }
  | Request_shed of { at : float; uid : int; reason : shed_reason }
  | Request_retry of {
      at : float;
      uid : int;
      attempt : int;
      retry_at : float;
      remaining_s : float option;
    }
  | Request_hedge_armed of {
      at : float;
      uid : int;
      primary : int;
      fire_at : float;
    }
  | Request_hedge_win of { at : float; uid : int; backend : int }
  | Migration_floor of { at : float; cls : string; floor : int }
  | Migration_live of { at : float; cls : string; replicas : int }
  | Control_session of {
      at : float;
      threshold : float;
      hysteresis : float;
      cooldown_s : float;
      canary_windows : int;
    }
  | Control_trigger of {
      at : float;
      score : float;
      threshold : float;
      cooldown_s : float;
    }
  | Control_plan of {
      at : float;
      accepted : bool;
      clean : bool;
      cost_before : float;
      cost_after : float;
      moved_mb : float;
      moved_fragments : int;
    }
  | Control_reallocate_start of { at : float; id : int; moved_mb : float }
  | Control_breach of {
      at : float;
      id : int;
      metric : string;
      value : float;
      limit : float;
    }
  | Control_rollback of { at : float; id : int }
  | Control_commit of { at : float; id : int }
  | Custom of custom

let at = function
  | Run_start { at; _ }
  | Run_summary { at; _ }
  | Backend_serve { at; _ }
  | Backend_crash { at; _ }
  | Backend_recover { at; _ }
  | Backend_catchup_done { at; _ }
  | Backend_partition { at; _ }
  | Backend_heal { at; _ }
  | Backend_fence_lift { at; _ }
  | Backend_slowdown { at; _ }
  | Zone_outage { at; _ }
  | Zone_heal { at; _ }
  | Workload_shift { at; _ }
  | Breaker_transition { at; _ }
  | Request_shed { at; _ }
  | Request_retry { at; _ }
  | Request_hedge_armed { at; _ }
  | Request_hedge_win { at; _ }
  | Migration_floor { at; _ }
  | Migration_live { at; _ }
  | Control_session { at; _ }
  | Control_trigger { at; _ }
  | Control_plan { at; _ }
  | Control_reallocate_start { at; _ }
  | Control_breach { at; _ }
  | Control_rollback { at; _ }
  | Control_commit { at; _ }
  | Custom { at; _ } ->
      at

let name = function
  | Run_start _ -> "run.start"
  | Run_summary _ -> "run.summary"
  | Backend_serve _ -> "backend.serve"
  | Backend_crash _ -> "backend.crash"
  | Backend_recover _ -> "backend.recover"
  | Backend_catchup_done _ -> "backend.catchup_done"
  | Backend_partition _ -> "backend.partition"
  | Backend_heal _ -> "backend.heal"
  | Backend_fence_lift _ -> "backend.fence_lift"
  | Backend_slowdown _ -> "backend.slowdown"
  | Zone_outage _ -> "zone.outage"
  | Zone_heal _ -> "zone.heal"
  | Workload_shift _ -> "workload.shift"
  | Breaker_transition _ -> "breaker.transition"
  | Request_shed _ -> "request.shed"
  | Request_retry _ -> "request.retry"
  | Request_hedge_armed _ -> "request.hedge_armed"
  | Request_hedge_win _ -> "request.hedge_win"
  | Migration_floor _ -> "migration.floor"
  | Migration_live _ -> "migration.live"
  | Control_session _ -> "control.session"
  | Control_trigger _ -> "control.trigger"
  | Control_plan _ -> "control.plan"
  | Control_reallocate_start _ -> "control.reallocate.start"
  | Control_breach _ -> "control.breach"
  | Control_rollback _ -> "control.rollback"
  | Control_commit _ -> "control.commit"
  | Custom c -> c.name

let breaker_label = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half_open"

let serve_label = function
  | Read _ -> "read"
  | Update -> "update"
  | Catchup -> "catchup"

let attrs e =
  let i k v = (k, Int v) and f k v = (k, Float v) and s k v = (k, Str v) in
  match e with
  | Run_start r -> [ i "backends" r.backends; i "offered" r.offered ]
  | Run_summary r ->
      [
        i "offered" r.offered; i "completed" r.completed;
        i "aborted" r.aborted; i "shed" r.shed; i "timeouts" r.timeouts;
        i "retries" r.retries; i "hedged" r.hedged;
        i "hedge_wins" r.hedge_wins; i "offered_updates" r.offered_updates;
        i "completed_updates" r.completed_updates;
      ]
  | Backend_serve r ->
      i "backend" r.backend
      :: s "kind" (serve_label r.kind)
      :: f "start" r.start :: f "finish" r.finish
      :: (match r.kind with
         | Read cls -> [ s "cls" cls ]
         | Update | Catchup -> [])
  | Backend_crash { backend; _ }
  | Backend_catchup_done { backend; _ }
  | Backend_partition { backend; _ } ->
      [ i "backend" backend ]
  | Backend_recover r -> [ i "backend" r.backend; f "replay_mb" r.replay_mb ]
  | Backend_heal r ->
      [ i "backend" r.backend; i "epoch" r.epoch; f "replay_mb" r.replay_mb ]
  | Backend_fence_lift r -> [ i "backend" r.backend; i "epoch" r.epoch ]
  | Backend_slowdown r ->
      [
        i "backend" r.backend; f "factor" r.factor;
        f "duration_s" r.duration_s;
      ]
  | Zone_outage r -> [ i "zone" r.zone; i "backends" r.backends ]
  | Zone_heal r -> [ i "zone" r.zone ]
  | Workload_shift r -> [ i "classes" r.classes ]
  | Breaker_transition r ->
      [ i "backend" r.backend; s "state" (breaker_label r.state) ]
  | Request_shed r ->
      [
        i "uid" r.uid;
        s "reason"
          (match r.reason with
          | Evicted_oldest -> "evicted_oldest"
          | Refused_newcomer -> "refused_newcomer");
      ]
  | Request_retry r ->
      i "uid" r.uid :: i "attempt" r.attempt :: f "retry_at" r.retry_at
      :: (match r.remaining_s with
         | Some x -> [ f "remaining_s" x ]
         | None -> [])
  | Request_hedge_armed r ->
      [ i "uid" r.uid; i "primary" r.primary; f "fire_at" r.fire_at ]
  | Request_hedge_win r -> [ i "uid" r.uid; i "backend" r.backend ]
  | Migration_floor r -> [ s "class" r.cls; i "floor" r.floor ]
  | Migration_live r -> [ s "class" r.cls; i "replicas" r.replicas ]
  | Control_session r ->
      [
        f "threshold" r.threshold; f "hysteresis" r.hysteresis;
        f "cooldown_s" r.cooldown_s; i "canary_windows" r.canary_windows;
      ]
  | Control_trigger r ->
      [
        f "score" r.score; f "threshold" r.threshold;
        f "cooldown_s" r.cooldown_s;
      ]
  | Control_plan r ->
      [
        ("accepted", Bool r.accepted); ("clean", Bool r.clean);
        f "cost_before" r.cost_before; f "cost_after" r.cost_after;
        f "moved_mb" r.moved_mb; i "moved_fragments" r.moved_fragments;
      ]
  | Control_reallocate_start r -> [ i "id" r.id; f "moved_mb" r.moved_mb ]
  | Control_breach r ->
      [
        i "id" r.id; s "metric" r.metric; f "value" r.value;
        f "limit" r.limit;
      ]
  | Control_rollback { id; _ } | Control_commit { id; _ } -> [ i "id" id ]
  | Custom c -> c.attrs

(* The wire names {!name} gives the constructors. *)
let owned =
  [
    "run.start"; "run.summary"; "backend.serve"; "backend.crash";
    "backend.recover"; "backend.catchup_done"; "backend.partition";
    "backend.heal"; "backend.fence_lift"; "backend.slowdown"; "zone.outage";
    "zone.heal"; "workload.shift"; "breaker.transition"; "request.shed";
    "request.retry"; "request.hedge_armed"; "request.hedge_win";
    "migration.floor"; "migration.live"; "control.session";
    "control.trigger"; "control.plan"; "control.reallocate.start";
    "control.breach"; "control.rollback"; "control.commit";
  ]

let custom ~at name attrs =
  if List.mem name owned then
    invalid_arg ("Trace.custom: " ^ name ^ " is a typed event");
  Custom { at; name; attrs }

type subscription = int

type t = {
  ring : event array;
  mutable head : int;  (* next write position *)
  mutable len : int;
  mutable dropped : int;
  mutable subs : (subscription * (event -> unit)) list;
  mutable next_sub : subscription;
}

(* What an unwritten or cleared slot holds; never returned. *)
let vacant = Custom { at = 0.; name = ""; attrs = [] }

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity <= 0";
  {
    ring = Array.make capacity vacant;
    head = 0;
    len = 0;
    dropped = 0;
    subs = [];
    next_sub = 0;
  }

let capacity t = Array.length t.ring

let subscribe t f =
  let id = t.next_sub in
  t.next_sub <- id + 1;
  t.subs <- t.subs @ [ (id, f) ];
  id

let unsubscribe t id = t.subs <- List.filter (fun (i, _) -> i <> id) t.subs

let push t e =
  let cap = capacity t in
  (if t.len = cap then t.dropped <- t.dropped + 1
   else t.len <- t.len + 1);
  t.ring.(t.head) <- e;
  t.head <- (if t.head + 1 = cap then 0 else t.head + 1);
  match t.subs with
  | [] -> ()
  | subs -> List.iter (fun (_, f) -> f e) subs

let length t = t.len
let dropped t = t.dropped
let total t = t.len + t.dropped

let events t =
  let cap = capacity t in
  let start = (t.head - t.len + cap) mod cap in
  List.init t.len (fun i -> t.ring.((start + i) mod cap))
