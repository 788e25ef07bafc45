(** Typed trace events keyed on the simulated event clock.

    A trace is a bounded ring of {!event}s.  Emitters stamp events with
    the simulation time, not wall clock, so a trace reads as a causally
    ordered story of a run: request lifecycle, retries, hedges, migration
    copy/cutover, breaker transitions, shed and refusal decisions.  When
    the ring fills, the oldest events are dropped (and counted) — tracing
    never grows without bound and never perturbs the simulation.

    Every event the simulator, the control loop or a monitor rule deals
    in has its own constructor with typed fields, so building one costs a
    single block and a consumer matches on it instead of looking up
    attribute names.  {!name} and {!attrs} render any event to its wire
    form: a dotted name (["backend.serve"]) and an ordered list of typed
    attributes.  Free-form events that no rule reads (experiment
    milestones such as ["migration.start"]) are {!Custom},
    built only through {!custom}, which refuses the names the
    constructors own.

    {!subscribe} registers a streaming observer that sees {e every}
    emitted event, including the ones the bounded ring later evicts —
    the hook runtime-verification monitors are built on. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type serve_kind =
  | Read of string  (** a read of the query class with this id *)
  | Update
  | Catchup  (** replay of missed update volume *)

type breaker_state = Closed | Open | Half_open
type shed_reason = Evicted_oldest | Refused_newcomer

type custom = private {
  at : float;
  name : string;
  attrs : (string * value) list;
}

(** Each constructor is listed with its wire name; {!attrs} renders its
    fields in declaration order under the field names, except where
    noted. *)
type event =
  | Run_start of { at : float; backends : int; offered : int }
      (** ["run.start"] *)
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
    }  (** ["run.summary"] *)
  | Backend_serve of {
      at : float;
      backend : int;
      kind : serve_kind;
      start : float;
      finish : float;
    }
      (** ["backend.serve"]: [backend], [kind] (["read"], ["update"] or
          ["catchup"]), [start], [finish], then a read's class as
          [cls]. *)
  | Backend_crash of { at : float; backend : int }  (** ["backend.crash"] *)
  | Backend_recover of { at : float; backend : int; replay_mb : float }
      (** ["backend.recover"] *)
  | Backend_catchup_done of { at : float; backend : int }
      (** ["backend.catchup_done"] *)
  | Backend_partition of { at : float; backend : int }
      (** ["backend.partition"] *)
  | Backend_heal of {
      at : float;
      backend : int;
      epoch : int;
      replay_mb : float;
    }  (** ["backend.heal"] *)
  | Backend_fence_lift of { at : float; backend : int; epoch : int }
      (** ["backend.fence_lift"] *)
  | Backend_slowdown of {
      at : float;
      backend : int;
      factor : float;
      duration_s : float;
    }  (** ["backend.slowdown"] *)
  | Zone_outage of { at : float; zone : int; backends : int }
      (** ["zone.outage"] *)
  | Zone_heal of { at : float; zone : int }  (** ["zone.heal"] *)
  | Workload_shift of { at : float; classes : int }
      (** ["workload.shift"] *)
  | Breaker_transition of { at : float; backend : int; state : breaker_state }
      (** ["breaker.transition"]; [state] is ["closed"], ["open"] or
          ["half_open"]. *)
  | Request_shed of { at : float; uid : int; reason : shed_reason }
      (** ["request.shed"]; [reason] is ["evicted_oldest"] or
          ["refused_newcomer"]. *)
  | Request_retry of {
      at : float;
      uid : int;
      attempt : int;
      retry_at : float;
      remaining_s : float option;
    }
      (** ["request.retry"]; [remaining_s], the deadline budget left when
          the retry fires, only under a deadline policy. *)
  | Request_hedge_armed of {
      at : float;
      uid : int;
      primary : int;
      fire_at : float;
    }  (** ["request.hedge_armed"] *)
  | Request_hedge_win of { at : float; uid : int; backend : int }
      (** ["request.hedge_win"] *)
  | Migration_floor of { at : float; cls : string; floor : int }
      (** ["migration.floor"]; [cls] is rendered as [class]. *)
  | Migration_live of { at : float; cls : string; replicas : int }
      (** ["migration.live"]; [cls] is rendered as [class]. *)
  | Control_session of {
      at : float;
      threshold : float;
      hysteresis : float;
      cooldown_s : float;
      canary_windows : int;
    }  (** ["control.session"] *)
  | Control_trigger of {
      at : float;
      score : float;
      threshold : float;
      cooldown_s : float;
    }  (** ["control.trigger"] *)
  | Control_plan of {
      at : float;
      accepted : bool;
      clean : bool;
      cost_before : float;
      cost_after : float;
      moved_mb : float;
      moved_fragments : int;
    }  (** ["control.plan"] *)
  | Control_reallocate_start of { at : float; id : int; moved_mb : float }
      (** ["control.reallocate.start"] *)
  | Control_breach of {
      at : float;
      id : int;
      metric : string;
      value : float;
      limit : float;
    }  (** ["control.breach"] *)
  | Control_rollback of { at : float; id : int }  (** ["control.rollback"] *)
  | Control_commit of { at : float; id : int }  (** ["control.commit"] *)
  | Custom of custom  (** a free-form event *)

val custom : at:float -> string -> (string * value) list -> event
(** A free-form event.
    @raise Invalid_argument when a constructor owns the name. *)

val at : event -> float
val name : event -> string

val attrs : event -> (string * value) list
(** The wire form's attributes, in their documented order. *)

val breaker_label : breaker_state -> string
(** ["closed"], ["open"] or ["half_open"]. *)

val serve_label : serve_kind -> string
(** ["read"], ["update"] or ["catchup"]. *)

type t

val create : ?capacity:int -> unit -> t
(** Ring buffer of up to [capacity] events (default 4096).
    @raise Invalid_argument when [capacity <= 0]. *)

val push : t -> event -> unit
(** Append an event; evicts the oldest when full.  Every subscriber is
    invoked with the event, whether or not the ring retains it. *)

(** {1 Subscriptions}

    Ring consumers see a bounded window; subscribers see the full stream.
    Subscribers run synchronously inside {!push}, in subscription order,
    and must not emit into the same trace. *)

type subscription

val subscribe : t -> (event -> unit) -> subscription
(** Register a callback invoked on every subsequent {!push}. *)

val unsubscribe : t -> subscription -> unit
(** Remove a subscription; unknown ids are ignored. *)

val length : t -> int
(** Events currently retained. *)

val dropped : t -> int
(** Events evicted because the ring was full. *)

val total : t -> int
(** Events ever emitted ([length + dropped]). *)

val events : t -> event list
(** Retained events, oldest first. *)

