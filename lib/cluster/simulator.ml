module Allocation = Cdbs_core.Allocation
module Query_class = Cdbs_core.Query_class
module Fragment = Cdbs_core.Fragment
module Planner = Cdbs_migration.Planner
module Schedule = Cdbs_migration.Schedule
module Delta = Cdbs_migration.Delta
module Fault = Cdbs_faults.Fault
module Retry = Cdbs_faults.Retry
module Resilience = Cdbs_resilience
module Heap = Cdbs_util.Heap
module Tel = Cdbs_telemetry

type config = {
  cost : Cost_model.params;
  speeds : float array;
  protocol : Protocol.t;
}

let homogeneous_config ?(cost = Cost_model.default) n =
  if n <= 0 then invalid_arg "Simulator.homogeneous_config";
  { cost; speeds = Array.make n 1.; protocol = Protocol.default }

type outcome = {
  completed : int;
  makespan : float;
  throughput : float;
  avg_response : float;
  max_response : float;
  p50_response : float Lazy.t;
  p95_response : float Lazy.t;
  p99_response : float Lazy.t;
  busy : float array;
  utilization : float array;
  errors : int;
}

(* Nearest-rank percentiles of response times, each selected on its first
   read from one shared copy of the sample; zeros when empty. *)
let percentiles_of rs =
  let ranked =
    lazy
      (if Array.length rs = 0 then fun _ -> 0.
       else Cdbs_util.Stats.nearest_rank rs)
  in
  fun p -> lazy (Lazy.force ranked p)

(* Open-mode runs trust arrival order; a caller handing over an unsorted
   list would silently simulate time running backwards (requests "arriving"
   before the clock reached them never queue).  A stream already in order
   (every [Spec.uniform_requests] stream) passes an allocation-free check;
   any other is stably ordered on its unboxed arrival keys. *)
let sorted_by_arrival requests =
  let rec is_sorted = function
    | (a : Request.t) :: (b :: _ as rest) ->
        a.Request.arrival <= b.Request.arrival && is_sorted rest
    | _ -> true
  in
  if is_sorted requests then requests
  else begin
    let drawn = Array.of_list requests in
    let order =
      Cdbs_util.Stats.stable_order
        (Float.Array.map_from_array
           (fun (r : Request.t) -> r.Request.arrival)
           drawn)
    in
    Array.fold_right (fun i stream -> drawn.(i) :: stream) order []
  end

(* The megabytes a request of class [c] scans: its own estimate, else the
   class's fragment footprint. *)
let scan_mb cost_mb c =
  match cost_mb with Some mb -> mb | None -> Query_class.size c

(* The instant the last booked work drains, over backends [0, n). *)
let makespan_of sched n =
  let m = ref 0. in
  for b = 0 to n - 1 do
    if Scheduler.free_at sched ~backend:b > !m then
      m := Scheduler.free_at sched ~backend:b
  done;
  !m

type recovery = {
  rec_backend : int;
  crashed_at : float;
  recovered_at : float;
  mutable caught_up_at : float;
      (* [nan] while catch-up is pending (or forever, if the backend
         crashed again before finishing it) *)
  replayed_mb : float;
}

type fault_outcome = {
  run : outcome;
  offered : int;
  availability : float;
  retried_requests : int;
  retries : int;
  aborted : int;
  timeouts : int;
  shed : int;
  shed_updates : int;
  hedged : int;
  hedge_wins : int;
  breaker_trips : int;
  wasted_work : float;
  offered_updates : int;
  completed_updates : int;
  cancelled_work : float;
  catch_up_mb : float;
  recoveries : recovery list;
  downtime : float array;
  max_concurrent_down : int;
  events : int;
  responses : (float * float) list;
}

type migration_outcome = {
  run : outcome;
  copied_mb : float;
  replayed_mb : float;
  copy_done : float;
  drops_at : float;
  min_live_replicas : (string * int) list;
  target_deployed : bool;
  responses : (float * float) list;
}

(* One retry chain of a read whose service was lost to a crash (or that
   could not be routed at all). *)
type read_ctx = {
  rc_uid : int;
  rc_class : int;  (* position in the allocation's classes; -1 when it has
                      no class of the request's id *)
  rc_mb : float;  (* megabytes each attempt scans; 0 without a class *)
  rc_arrival : float;  (* original arrival: responses measure from here *)
  rc_attempt : int;  (* 0 = first attempt *)
  rc_deadline : float;  (* absolute client give-up instant; [infinity]
                           when no deadline policy is active *)
}

(* Internal events; each fires at its heap instant. *)
type dyn_event =
  | Retry_at of read_ctx
  | Catchup_done of { backend : int; gen : int }
  | Hedge_at of { primary : int; ctx : read_ctx }

type mig_event =
  | Copy_start of Schedule.timed_move
  | Cutover of Schedule.timed_move
  | Drop_all

(* What the event heap holds; arrivals stream past it.  [Partition] and
   [ZoneOutage] schedule entries are expanded into start/heal pairs before
   the run so the clock only ever sees instantaneous events. *)
type sim_event =
  | Ev_fault of Fault.timed
  | Ev_cut of { backends : int list; heal : bool; zone : int option }
  | Ev_mig of mig_event
  | Ev_dyn of dyn_event

(* Order at equal instants: faults and cuts, then a migration's copy
   starts, its (zero-length) cutovers and its drop barrier, then internal
   events; insertion order breaks the remaining ties. *)
let rank_of = function
  | Ev_fault _ | Ev_cut _ -> 0
  | Ev_mig (Copy_start _) -> 1
  | Ev_mig (Cutover _) -> 2
  | Ev_mig Drop_all -> 3
  | Ev_dyn _ -> 4

(* Foreground service on a node copying (as source or destination) takes
   this much longer. *)
let copy_slowdown = 0.25

(* A live migration as an event source.  [floors] pairs each query class
   with its expand-then-contract replica floor and the fewest live
   replicas seen so far. *)
type live_migration = {
  schedule : Schedule.t;
  floors : (Query_class.t * int * int ref) list;
  mutable replayed : float;
}

(* Seconds an in-flight read to a partitioned backend hangs before its
   client gives up and retries elsewhere. *)
let partition_timeout = 1.

(* The one event clock behind every entry point.  [batch] offers every
   request at t = 0 in list order; otherwise requests arrive at their
   timestamps.  Faults, cuts, migration steps and retry/hedge/catch-up
   events wait on one heap; [sched] carries the placement (static, or
   dynamic for a migration) and comes back in its final state. *)
let engine ~context ?(policy = Retry.no_retry) ?rng ?resilience ?telemetry
    ?monitor ?topology ?migration ?(batch = false)
    ?(keep_responses = false) config sched requests ~faults =
  let n = Scheduler.num_nodes sched in
  if Array.length config.speeds <> n then
    invalid_arg (context ^ ": speeds length <> backends");
  (match topology with
  | Some t when Cdbs_core.Topology.num_backends t <> n ->
      invalid_arg (context ^ ": topology backend count <> allocation")
  | _ -> ());
  let zone_of =
    Option.map
      (fun t -> Array.init n (Cdbs_core.Topology.zone_of t))
      topology
  in
  (match Fault.validate ?zone_of ~num_backends:n faults with
  | Ok () -> ()
  | Error e -> invalid_arg (context ^ ": " ^ e));
  (* A monitor needs an event stream even when the caller brought no sink
     of its own: give it a small private ring (only the subscription
     matters; nobody reads the ring or its metrics). *)
  let private_sink = Option.is_none telemetry && Option.is_some monitor in
  let telemetry =
    if private_sink then Some (Tel.Sink.create ~capacity:64 ()) else telemetry
  in
  let monitor_owns_attach =
    match (monitor, telemetry) with
    | Some m, Some sink -> Cdbs_analysis.Monitor.attach m sink
    | _ -> false
  in
  let requests = if batch then requests else sorted_by_arrival requests in
  let offered = List.length requests in
  Tel.Sink.push telemetry (Run_start { at = 0.; backends = n; offered });
  let delta : unit Delta.t = Delta.create () in
  let busy = Array.make n 0. in
  (* Each backend's bookings; every walk that picks one (shed victim,
     hedged leg, crash cancellation) goes newest first. *)
  let inflight = Array.init n (fun _ -> Bookings.create ()) in
  (* Per-backend lifecycle generation: bumped at every crash and recover so
     stale [Catchup_done] events from a superseded epoch are ignored. *)
  let gen = Array.make n 0 in
  (* Partition / split-brain fencing state.  [partitioned] marks a backend
     currently isolated by a network partition (its process runs but no
     traffic reaches it); [epoch] is the monotonic fencing token bumped at
     every heal; [fenced] marks a healed backend that must finish its delta
     catch-up before its fence lifts and it may serve reads again. *)
  let partitioned = Array.make n false in
  let fenced = Array.make n false in
  let epoch = Array.make n 0 in
  (* Apply volume lost on the backend itself (cancelled in-flight update
     applications and cancelled catch-up replay) — rejoins owe it on top of
     the delta journal's while-down captures. *)
  let lost_mb = Array.make n 0. in
  let slow_factor = Array.make n 1. and slow_until = Array.make n 0. in
  let down_since = Array.make n nan in
  let downtime = Array.make n 0. in
  (* Resident megabytes per backend, recomputed whenever its live set
     changes (only a migration changes it). *)
  let resident_of b =
    Fragment.set_size (Scheduler.live_fragments sched ~backend:b)
  in
  let resident = Array.init n resident_of in
  (* Completed requests by uid (dense, issued in arrival order): arrival
     and response.  A read is retracted when a crash or shed cancels it
     and recorded again when a retry or hedge lands. *)
  let arrival = Array.make offered 0. and response = Array.make offered 0. in
  let present = Array.make offered false in
  let record u resp = response.(u) <- resp; present.(u) <- true in
  let retried : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let pending_catchup : (int, recovery) Hashtbl.t = Hashtbl.create 4 in
  let retries = ref 0 and aborted = ref 0 and timeouts = ref 0 in
  (* Resilience defenses: each independently optional; all [None] (the
     default) reproduces the legacy engine exactly. *)
  let res =
    match resilience with Some r -> r | None -> Resilience.Policy.off
  in
  let admission = res.Resilience.Policy.admission in
  (* Simulated-clock cursor for observers that fire from inside callbacks
     (the breaker transition hook carries no [now] of its own). *)
  let now_ref = ref 0. in
  let on_transition =
    match telemetry with
    | None -> None
    | Some _ ->
        Some
          (fun ~backend state ->
            Tel.Sink.push telemetry
              (Breaker_transition { at = !now_ref; backend; state }))
  in
  let breaker =
    Option.map
      (fun config -> Resilience.Breaker.create ~config ?on_transition n)
      res.Resilience.Policy.breaker
  in
  let hedge = Option.map Resilience.Hedge.create res.Resilience.Policy.hedge in
  let deadline_on = res.Resilience.Policy.deadline <> None in
  let deadline_of ~arrival =
    match res.Resilience.Policy.deadline with
    | Some d -> arrival +. d.Resilience.Deadline.budget
    | None -> infinity
  in
  (* In-flight bookings are kept only when something reads them: crash-like
     faults cancel them, admission control counts and evicts them, hedges
     cancel the losing leg. *)
  let track =
    admission <> None || hedge <> None
    || List.exists
         (fun (f : Fault.timed) ->
           match f.Fault.event with
           | Fault.Crash _ | Fault.Partition _ | Fault.ZoneOutage _ -> true
           | Fault.Recover _ | Fault.Slowdown _ | Fault.Workload_shift _ ->
               false)
         faults
  in
  let healthy_at now =
    match breaker with
    | None -> None
    | Some br ->
        Some (fun b -> Resilience.Breaker.allows br ~backend:b ~now)
  in
  let breaker_success ~now b ~latency =
    match breaker with
    | None -> ()
    | Some br -> Resilience.Breaker.record_success br ~backend:b ~now ~latency
  in
  let shed = ref 0 and hedged = ref 0 and hedge_wins = ref 0 in
  let wasted_work = ref 0. in
  let offered_updates = ref 0 and completed_updates = ref 0 in
  let cancelled_work = ref 0. and catch_up_mb = ref 0. in
  let recoveries = ref [] in
  let cur_down = ref 0 and max_down = ref 0 in
  (* Faults, cuts, migration steps and internal events (retries,
     catch-ups, hedges) wait on a priority queue ordered by time, then
     {!rank_of}; arrivals stream past it from the request list (see the
     event clock below). *)
  let q : sim_event Heap.t = Heap.create () in
  let push ~time ev = Heap.add q ~time ~rank:(rank_of ev) ev in
  List.iter
    (fun (f : Fault.timed) ->
      let cut ~zone backends duration =
        push ~time:f.Fault.at (Ev_cut { backends; heal = false; zone });
        push ~time:(f.Fault.at +. duration)
          (Ev_cut { backends; heal = true; zone })
      in
      match f.Fault.event with
      | Fault.Partition { backends; duration } ->
          cut ~zone:None backends duration
      | Fault.ZoneOutage { zone; duration } ->
          (* Validation already required a topology for zone faults. *)
          let members =
            match topology with
            | Some t -> Cdbs_core.Topology.backends_in t zone
            | None -> []
          in
          cut ~zone:(Some zone) members duration
      | Fault.Crash _ | Fault.Recover _ | Fault.Slowdown _
      | Fault.Workload_shift _ ->
          push ~time:f.Fault.at (Ev_fault f))
    (Fault.sort faults);
  Option.iter
    (fun m ->
      let s = m.schedule in
      push ~time:s.Schedule.drops_at (Ev_mig Drop_all);
      List.iter
        (fun (tm : Schedule.timed_move) ->
          push ~time:tm.Schedule.start (Ev_mig (Copy_start tm));
          push ~time:tm.Schedule.finish (Ev_mig (Cutover tm)))
        s.Schedule.moves;
      (* Announce each class's expand-then-contract floor so the protocol
         monitor can hold the run to it. *)
      List.iter
        (fun ((c : Query_class.t), floor, _) ->
          Tel.Sink.push telemetry
            (Migration_floor { at = 0.; cls = c.Query_class.id; floor }))
        m.floors)
    migration;
  let insert_dyn ~at e = push ~time:at (Ev_dyn e) in
  (* Service quote: what booking this work on [b] right now would cost,
     without booking it.  Admission and deadline checks run on the quote;
     [commit] turns an accepted quote into a booking.  Background copy I/O
     contends with foreground work on the nodes it touches. *)
  let quote ~now ~mb ~replicas ~is_update b ~factor =
    let slow = if now < slow_until.(b) then slow_factor.(b) else 1. in
    let slow =
      match migration with
      | Some m when Schedule.copying m.schedule ~backend:b ~at:now ->
          slow *. (1. +. copy_slowdown)
      | _ -> slow
    in
    let service =
      factor *. slow
      *. Cost_model.service_time config.cost ~class_mb:mb
           ~resident_mb:resident.(b) ~speed:config.speeds.(b) ~is_update
           ~replicas
    in
    let start = max now (Scheduler.free_at sched ~backend:b) in
    (start, start +. service, service)
  in
  (* Per-request events are built only when a sink is on. *)
  let traced = Option.is_some telemetry in
  let serve_event ~at ~owner ~cls b ~start ~finish =
    if traced then
      (* Reads carry their query-class id so online estimators can harvest
         measured per-class service times straight off the trace. *)
      let kind : Tel.Trace.serve_kind =
        if owner >= 0 then Read (Scheduler.class_at sched cls).Query_class.id
        else if owner = Bookings.update then Update
        else Catchup
      in
      Tel.Sink.push telemetry
        (Backend_serve { at; backend = b; kind; start; finish })
  in
  (* [owner] is a read's uid, {!Bookings.update} or {!Bookings.catchup};
     [attempt] and [cls] matter for reads only. *)
  let commit ~mb ~owner ~attempt ~cls b (start, finish, service) =
    Scheduler.book sched ~backend:b ~finish;
    busy.(b) <- busy.(b) +. service;
    if track then
      Bookings.push inflight.(b) ~now:!now_ref ~start ~finish ~service ~mb
        ~owner ~attempt ~cls;
    serve_event ~at:!now_ref ~owner ~cls b ~start ~finish;
    finish
  in
  let commit_read rc b q =
    commit ~mb:rc.rc_mb ~owner:rc.rc_uid ~attempt:rc.rc_attempt
      ~cls:rc.rc_class b q
  in
  (* The context of the read booked in slot [i] of [q]. *)
  let read_ctx_of q i =
    let u = Bookings.owner q i in
    {
      rc_uid = u;
      rc_class = Bookings.cls q i;
      rc_mb = Bookings.mb q i;
      rc_arrival = arrival.(u);
      rc_attempt = Bookings.attempt q i;
      rc_deadline = deadline_of ~arrival:arrival.(u);
    }
  in
  (* Replay [mb] of missed update volume on [b] through the delta-journal
     cost model: foreground work that later arrivals queue behind. *)
  let book_replay ~now b mb =
    let replay =
      mb *. config.cost.Cost_model.scan_seconds_per_mb /. config.speeds.(b)
    in
    let start = max now (Scheduler.free_at sched ~backend:b) in
    commit ~mb ~owner:Bookings.catchup ~attempt:0 ~cls:(-1) b
      (start, start +. replay, replay)
  in
  (* Cancel the booking in slot [i] of [b]'s queue and refund its
     not-yet-served tail after [from_].  The backend's queue drains earlier
     by that amount — an approximation (bookings made between the victim
     and now keep their recorded finish times), matching the spirit of
     crash cancellation. *)
  let cancel_booking b i ~from_ =
    let refund = Bookings.cancel inflight.(b) i ~from_ in
    busy.(b) <- busy.(b) -. refund;
    Scheduler.book sched ~backend:b
      ~finish:(Scheduler.free_at sched ~backend:b -. refund);
    refund
  in
  (* Shed-oldest-first: evict the queued (not yet started) read that has
     waited longest; it is the one most likely already past its deadline.
     Returns [true] when a victim was found and evicted. *)
  let shed_oldest_queued b ~now =
    let q = inflight.(b) in
    let victim = Bookings.oldest_queued_read q ~now ~arrival in
    if victim < 0 then false
    else begin
      let u = Bookings.owner q victim in
      ignore (cancel_booking b victim ~from_:now);
      present.(u) <- false;
      incr shed;
      incr aborted;
      if traced then
        Tel.Sink.push telemetry
          (Request_shed { at = now; uid = u; reason = Evicted_oldest });
      true
    end
  in
  (* An attempt of read [rc] failed at [now]: try again after backoff,
     unless the retry budget is spent.  With a deadline policy active the
     end-to-end budget governs instead of the fixed attempt count: the
     chain retries as long as the backoff lands inside the budget.
     [extra_delay] models slow failure: a partitioned backend does not
     reset connections, so the client only notices after a network timeout
     and the retry fires that much later. *)
  let schedule_retry ?(extra_delay = 0.) ~now rc =
    let attempt = rc.rc_attempt + 1 in
    if (not deadline_on) && Retry.gives_up policy ~attempt then incr aborted
    else
      let at = now +. extra_delay +. Retry.backoff ?rng policy ~attempt in
      let budget_spent =
        if deadline_on then at >= rc.rc_deadline
        else Retry.timed_out policy ~arrival:rc.rc_arrival ~now:at
      in
      if budget_spent then begin
        incr aborted;
        incr timeouts
      end
      else begin
        incr retries;
        if traced then
          Tel.Sink.push telemetry
            (Request_retry
               {
                 at = now;
                 uid = rc.rc_uid;
                 attempt;
                 retry_at = at;
                 (* The budget left when the retry fires — the monitor
                    checks it decreases monotonically along the chain. *)
                 remaining_s =
                   (if deadline_on then Some (rc.rc_deadline -. at) else None);
               });
        Hashtbl.replace retried rc.rc_uid ();
        insert_dyn ~at (Retry_at { rc with rc_attempt = attempt })
      end
  in
  (* Arm a speculative second dispatch if this read is predicted to exceed
     the adaptive hedge delay. *)
  let maybe_hedge ~now rc b finish =
    match hedge with
    | None -> ()
    | Some h ->
        let d = Resilience.Hedge.delay h in
        Resilience.Hedge.observe h (finish -. now);
        if finish -. now > d then begin
          if traced then
            Tel.Sink.push telemetry
              (Request_hedge_armed
                 {
                   at = now;
                   uid = rc.rc_uid;
                   primary = b;
                   fire_at = now +. d;
                 });
          insert_dyn ~at:(now +. d) (Hedge_at { primary = b; ctx = rc })
        end
  in
  let handle_read ~now rc =
    if deadline_on && now >= rc.rc_deadline then begin
      (* The client abandoned the request before this attempt started. *)
      incr timeouts;
      incr aborted
    end
    else if rc.rc_class < 0 then
      (* The allocation has no class of this id: no attempt can route it. *)
      schedule_retry ~now rc
    else
      (* Route by class position, without materializing a Request or
         candidate lists. *)
      match
        Scheduler.best_read_target ?healthy:(healthy_at now) sched ~now
          rc.rc_class
      with
      | None -> schedule_retry ~now rc
      | Some b -> (
          (* The quote is pure, so an admission check and the booking it
             admits share one; only a shed (which reshapes the queue)
             forces a re-quote. *)
          let book q =
            let _, finish, service = q in
            ignore (commit_read rc b q);
            breaker_success ~now b ~latency:(finish -. now);
            if deadline_on && finish > rc.rc_deadline then begin
              (* Without admission control this work is booked anyway and
                 wasted: the client is gone when it completes. *)
              incr timeouts;
              incr aborted;
              wasted_work := !wasted_work +. service
            end
            else begin
              record rc.rc_uid (finish -. rc.rc_arrival);
              maybe_hedge ~now rc b finish
            end
          in
          let fresh_quote () =
            quote ~now ~mb:rc.rc_mb ~replicas:1 ~is_update:false b ~factor:1.
          in
          match admission with
          | None -> book (fresh_quote ())
          | Some pol ->
              let ((_, finish, _) as q) = fresh_quote () in
              if deadline_on && finish > rc.rc_deadline then begin
                (* Deadline-aware admission: refuse up front instead of
                   serving work whose client will have abandoned it. *)
                incr timeouts;
                incr aborted
              end
              else
                let depth = Bookings.depth inflight.(b) ~now in
                let pending = Scheduler.pending sched ~backend:b ~now in
                (match
                   Resilience.Admission.decide pol ~depth ~pending
                     ~is_update:false
                 with
                | Resilience.Admission.Admit -> book q
                | Resilience.Admission.Shed ->
                    if shed_oldest_queued b ~now then book (fresh_quote ())
                    else begin
                      (* Queue holds no evictable read: shed the
                         newcomer. *)
                      incr shed;
                      incr aborted;
                      if traced then
                        Tel.Sink.push telemetry
                          (Request_shed
                             {
                               at = now;
                               uid = rc.rc_uid;
                               reason = Refused_newcomer;
                             })
                    end))
  in
  (* [k] is the class position, -1 for an id the allocation lacks. *)
  let handle_update ~now (r : Request.t) k u =
    incr offered_updates;
    (* Updates bypass every defense: admission never sheds them, deadlines
       never abandon them, breakers never steer them — ROWA requires each
       live replica of a written partition to apply every update. *)
    match if k < 0 then [] else Scheduler.targets_for_update_at sched k with
    | [] ->
        (* Unknown class, or no live replica holds the data: ROWA cannot
           commit anywhere.  Updates are not retried (see
           {!Cdbs_faults.Retry}). *)
        incr aborted
    | targets ->
        let c = Scheduler.class_at sched k in
        let mb = scan_mb r.Request.cost_mb c in
        (* Crashed backends and in-flight copies holding the touched
           fragments journal the volume; it is replayed when they rejoin or
           cut over. *)
        if not (Delta.is_empty delta) then begin
          let frags = c.Query_class.fragments in
          let per = mb /. float_of_int (max 1 (Fragment.Set.cardinal frags)) in
          Fragment.Set.iter
            (fun f -> ignore (Delta.capture delta ~fragment:f ~item:() ~mb:per))
            frags
        end;
        let split = Protocol.plan config.protocol ~targets in
        let replicas = List.length split.Protocol.sync in
        let apply b ~factor =
          commit ~mb ~owner:Bookings.update ~attempt:0 ~cls:(-1) b
            (quote ~now ~mb ~replicas ~is_update:true b ~factor)
        in
        let finish_all = ref now in
        List.iter
          (fun b ->
            let f = apply b ~factor:1. in
            if f > !finish_all then finish_all := f)
          split.Protocol.sync;
        List.iter
          (fun (b, factor) -> ignore (apply b ~factor))
          split.Protocol.async;
        incr completed_updates;
        record u (!finish_all -. now)
  in
  (* Take a backend out of service.  [cut = false] is a crash: clients see
     connections reset and retry immediately.  [cut = true] is a network
     partition: the process keeps running but is unreachable, so in-flight
     reads hang for [partition_timeout] before failing over.  Either way
     the backend's replicas go stale and the delta journal starts
     capturing the update volume they miss. *)
  let take_down ~now ~cut b =
    if Scheduler.is_up sched ~backend:b then begin
      (if cut then begin
         partitioned.(b) <- true;
         Tel.Sink.push telemetry (Backend_partition { at = now; backend = b })
       end
       else Tel.Sink.push telemetry (Backend_crash { at = now; backend = b }));
      (* A crash interrupts a fencing catch-up: the [gen] bump below
         invalidates its [Catchup_done] and the fence state evaporates
         with the process (the next rejoin starts a fresh catch-up). *)
      fenced.(b) <- false;
      Scheduler.set_down sched ~backend:b;
      down_since.(b) <- now;
      incr cur_down;
      if !cur_down > !max_down then max_down := !cur_down;
      gen.(b) <- gen.(b) + 1;
      Hashtbl.remove pending_catchup b;
      let q = inflight.(b) in
      Bookings.iter_live q ~now (fun i ->
          let finish = Bookings.finish q i in
          let lost = finish -. max (Bookings.start q i) now in
          cancelled_work := !cancelled_work +. lost;
          busy.(b) <- busy.(b) -. lost;
          if Bookings.owner q i >= 0 then begin
            let rc = read_ctx_of q i in
            if deadline_on && finish > rc.rc_deadline then
              (* Booked past its deadline: the read already counted as
                 timed out and aborted, and its client is gone.  Only the
                 served prefix was wasted. *)
              wasted_work := !wasted_work -. lost
            else begin
              (* The client notices the broken connection at the crash
                 instant and re-issues against a surviving replica; under
                 a partition nothing resets, so it waits out the network
                 timeout first (slow failure). *)
              present.(rc.rc_uid) <- false;
              schedule_retry
                ~extra_delay:(if cut then partition_timeout else 0.)
                ~now rc
            end
          end
          else begin
            (* Un-applied fraction of the replica write (the update itself
               committed on the survivors): owed at rejoin.  A zero-length
               booking is still queued and has applied nothing. *)
            let service = Bookings.service q i and mb = Bookings.mb q i in
            let owed = if service = 0. then mb else mb *. lost /. service in
            lost_mb.(b) <- lost_mb.(b) +. owed
          end);
      Bookings.clear q;
      Scheduler.book sched ~backend:b ~finish:now;
      Fragment.Set.iter
        (fun f -> Delta.open_capture delta ~dest:b ~fragment:f)
        (Scheduler.live_fragments sched ~backend:b)
    end
  in
  (* Bring a backend back.  [healed = false] is a plain crash recovery;
     [healed = true] ends a partition: the heal bumps the backend's
     fencing epoch and — when it missed updates — keeps it fenced until
     the delta catch-up completes, so a stale minority can never serve a
     read the majority already moved past (split-brain prevention). *)
  let rejoin ~now ~healed b =
    if not (Scheduler.is_up sched ~backend:b) then begin
      decr cur_down;
      downtime.(b) <- downtime.(b) +. (now -. down_since.(b));
      gen.(b) <- gen.(b) + 1;
      let missed = ref lost_mb.(b) in
      lost_mb.(b) <- 0.;
      Fragment.Set.iter
        (fun f ->
          let _, mb = Delta.drain delta ~dest:b ~fragment:f in
          missed := !missed +. mb)
        (Scheduler.live_fragments sched ~backend:b);
      let crashed_at = down_since.(b) in
      if healed then begin
        partitioned.(b) <- false;
        epoch.(b) <- epoch.(b) + 1;
        Tel.Sink.push telemetry
          (Backend_heal
             { at = now; backend = b; epoch = epoch.(b); replay_mb = !missed })
      end
      else
        Tel.Sink.push telemetry
          (Backend_recover { at = now; backend = b; replay_mb = !missed });
      if !missed <= 0. then begin
        Scheduler.set_up sched ~backend:b;
        if healed then
          (* Nothing was missed: the fence lifts at the heal instant. *)
          Tel.Sink.push telemetry
            (Backend_fence_lift { at = now; backend = b; epoch = epoch.(b) });
        recoveries :=
          { rec_backend = b; crashed_at; recovered_at = now;
            caught_up_at = now; replayed_mb = 0. }
          :: !recoveries
      end
      else begin
        (* Rejoin stale: replay the missed volume (as at a migration
           cutover) before serving reads again.  New updates queue behind
           the replay, keeping the backend consistent from the catch-up
           point on. *)
        Scheduler.set_up ~stale:true sched ~backend:b;
        if healed then fenced.(b) <- true;
        catch_up_mb := !catch_up_mb +. !missed;
        let finish = book_replay ~now b !missed in
        let r =
          { rec_backend = b; crashed_at; recovered_at = now;
            caught_up_at = nan; replayed_mb = !missed }
        in
        recoveries := r :: !recoveries;
        Hashtbl.replace pending_catchup b r;
        insert_dyn ~at:finish (Catchup_done { backend = b; gen = gen.(b) })
      end
    end
  in
  (* A partition start/heal, or a whole-zone outage (correlated crash of
     every member, bracketed by zone.outage / zone.heal trace events). *)
  let apply_cut ~now ~heal ~zone backends =
    match zone with
    | Some z ->
        if heal then begin
          List.iter (fun b -> rejoin ~now ~healed:false b) backends;
          Tel.Sink.push telemetry (Zone_heal { at = now; zone = z })
        end
        else begin
          Tel.Sink.push telemetry
            (Zone_outage
               { at = now; zone = z; backends = List.length backends });
          List.iter (fun b -> take_down ~now ~cut:false b) backends
        end
    | None ->
        if heal then
          List.iter
            (fun b -> if partitioned.(b) then rejoin ~now ~healed:true b)
            backends
        else List.iter (fun b -> take_down ~now ~cut:true b) backends
  in
  let apply_fault ({ Fault.at = now; event } : Fault.timed) =
    match event with
    | Fault.Crash b -> take_down ~now ~cut:false b
    | Fault.Recover b -> rejoin ~now ~healed:false b
    | Fault.Slowdown { backend = b; factor; duration } ->
        Tel.Sink.push telemetry
          (Backend_slowdown
             { at = now; backend = b; factor; duration_s = duration });
        slow_factor.(b) <- factor;
        slow_until.(b) <- now +. duration
    | Fault.Workload_shift { mix } ->
        (* The request stream is pre-generated, so the engine cannot
           change arrivals mid-run; it announces the shift so monitors
           and online estimators see drift on the event clock, and the
           window-driving caller regenerates subsequent arrivals. *)
        Tel.Sink.push telemetry
          (Workload_shift { at = now; classes = List.length mix })
    | Fault.Partition _ | Fault.ZoneOutage _ ->
        (* Expanded into [Ev_cut] start/heal pairs when the heap was
           loaded; never reaches the clock in this shape. *)
        ()
  in
  (* Live sets change at cutovers and at the drop barrier: routing follows
     them and the cost model reads the new resident volume. *)
  let set_live b f change =
    change sched ~backend:b (Fragment.Set.singleton f);
    resident.(b) <- resident_of b
  in
  let apply_migration ~now m = function
    | Copy_start tm ->
        Delta.open_capture delta ~dest:tm.Schedule.move.Planner.dest
          ~fragment:tm.Schedule.move.Planner.fragment
    | Cutover tm ->
        let dest = tm.Schedule.move.Planner.dest in
        let fragment = tm.Schedule.move.Planner.fragment in
        let _, mb = Delta.drain delta ~dest ~fragment in
        (* Replay the captured deltas on the destination before the
           fragment goes live there. *)
        if mb > 0. then begin
          ignore (book_replay ~now dest mb);
          m.replayed <- m.replayed +. mb
        end;
        set_live dest fragment Scheduler.add_live
    | Drop_all ->
        List.iter
          (fun (d : Planner.drop) ->
            set_live d.Planner.at_backend d.Planner.victim
              Scheduler.remove_live)
          m.schedule.Schedule.plan.Planner.drops
  in
  (* After every migration step, audit each class's live replicas
     against the floor. *)
  let observe_floors ~at m =
    List.iter
      (fun ((c : Query_class.t), _, low) ->
        let r = Scheduler.live_replicas sched c in
        Tel.Sink.push telemetry
          (Migration_live { at; cls = c.Query_class.id; replicas = r });
        if r < !low then low := r)
      m.floors
  in
  let apply_dyn ~now = function
    | Retry_at rc -> handle_read ~now rc
    | Catchup_done { backend = b; gen = g } ->
        if
          g = gen.(b)
          && Scheduler.is_up sched ~backend:b
          && Scheduler.is_stale sched ~backend:b
        then begin
          Scheduler.set_stale sched ~backend:b ~stale:false;
          (if fenced.(b) then begin
             (* The healed backend finished replaying what it missed while
                partitioned: its fence lifts and it may serve reads again,
                under the epoch minted at heal time. *)
             fenced.(b) <- false;
             Tel.Sink.push telemetry
               (Backend_fence_lift { at = now; backend = b; epoch = epoch.(b) })
           end
           else
             Tel.Sink.push telemetry
               (Backend_catchup_done { at = now; backend = b }));
          match Hashtbl.find_opt pending_catchup b with
          | Some r ->
              r.caught_up_at <- now;
              Hashtbl.remove pending_catchup b
          | None -> ()
        end
    | Hedge_at { primary; ctx = rc } -> (
        (* Speculatively dispatch the read to the next-best replica and
           keep whichever leg completes first; the loser's unserved tail
           is cancelled on the event clock. *)
        let u = rc.rc_uid in
        let f1 = arrival.(u) +. response.(u) in
        (* Nothing to hedge once the read completed before the hedge fired,
           or while it is mid-retry. *)
        let q1 = inflight.(primary) in
        if present.(u) && f1 > now then (
            match
              Bookings.find_live q1 ~now (fun i -> Bookings.owner q1 i = u)
            with
            | -1 -> () (* crash-cancelled or shed since it was armed *)
            | i1 -> (
                let best =
                  Scheduler.best_read_target
                    ?healthy:(healthy_at now) ~exclude:primary sched ~now
                    rc.rc_class
                in
                match best with
                | None -> () (* no second replica to hedge on *)
                | Some b2 ->
                    let ((s2, f2, sv2) as q2) =
                      quote ~now ~mb:rc.rc_mb ~replicas:1 ~is_update:false b2
                        ~factor:1.
                    in
                    let pointless =
                      (* a hedge that cannot beat the deadline is
                         wasted capacity by construction *)
                      (deadline_on && f2 > rc.rc_deadline)
                      ||
                      match admission with
                      | None -> false
                      | Some pol ->
                          (* A hedge never sheds foreground work. *)
                          Resilience.Admission.decide pol
                            ~depth:(Bookings.depth inflight.(b2) ~now)
                            ~pending:
                              (Scheduler.pending sched ~backend:b2 ~now)
                            ~is_update:false
                          = Resilience.Admission.Shed
                    in
                    if not pointless then begin
                      incr hedged;
                      if f2 < f1 then begin
                        incr hedge_wins;
                        if traced then
                          Tel.Sink.push telemetry
                            (Request_hedge_win
                               { at = now; uid = rc.rc_uid; backend = b2 });
                        ignore (commit_read rc b2 q2);
                        (* Cancel the losing primary leg: its already-
                           served prefix is sunk cost. *)
                        let refund = cancel_booking primary i1 ~from_:f2 in
                        wasted_work :=
                          !wasted_work +. (Bookings.service q1 i1 -. refund);
                        record rc.rc_uid (f2 -. rc.rc_arrival);
                        breaker_success ~now b2 ~latency:(f2 -. now)
                      end
                      else begin
                        (* The primary wins: the hedge leg occupies b2
                           until the win instant, then cancels. *)
                        let consumed = max 0. (min sv2 (f1 -. s2)) in
                        if consumed > 0. then begin
                          Scheduler.book sched ~backend:b2
                            ~finish:(s2 +. consumed);
                          busy.(b2) <- busy.(b2) +. consumed;
                          wasted_work := !wasted_work +. consumed
                        end
                      end
                    end)))
  in
  (* The event clock streams the requests past the heap: before each
     arrival it drains every heap event at or before that instant, which
     keeps heap events before arrivals at equal instants.  Uid [u] is the
     [u]-th arrival.  Crucially, heap events keep being processed after
     the last arrival — a crash still cancels whatever is queued, and a
     rebalance whose requests dried up still completes. *)
  let events_processed = ref 0 in
  let apply_event at ev =
    incr events_processed;
    now_ref := at;
    match ev with
    | Ev_fault f -> apply_fault f
    | Ev_cut { backends; heal; zone } -> apply_cut ~now:at ~heal ~zone backends
    | Ev_dyn e -> apply_dyn ~now:at e
    | Ev_mig e ->
        Option.iter
          (fun m ->
            apply_migration ~now:at m e;
            observe_floors ~at m)
          migration
  in
  List.iteri
    (fun u (r : Request.t) ->
      let now = if batch then 0. else r.Request.arrival in
      Heap.drain_until q ~time:now ~f:apply_event;
      incr events_processed;
      now_ref := now;
      arrival.(u) <- now;
      let k =
        match Scheduler.class_position sched r.Request.class_id with
        | Some k -> k
        | None -> -1
      in
      if r.Request.is_update then handle_update ~now r k u
      else
        handle_read ~now
          {
            rc_uid = u;
            rc_class = k;
            rc_mb =
              (if k < 0 then 0.
               else scan_mb r.Request.cost_mb (Scheduler.class_at sched k));
            rc_arrival = now;
            rc_attempt = 0;
            rc_deadline = deadline_of ~arrival:now;
          })
    requests;
  Heap.drain_until q ~time:infinity ~f:apply_event;
  let makespan = makespan_of sched n in
  (* Uid order is (arrival, uid) order. *)
  let completed =
    Array.fold_left (fun k p -> if p then k + 1 else k) 0 present
  in
  let rs = Array.make completed 0. in
  let k = ref 0 in
  Array.iteri
    (fun u p ->
      if p then begin
        rs.(!k) <- response.(u);
        incr k
      end)
    present;
  let responses = ref [] in
  if keep_responses then
    for u = offered - 1 downto 0 do
      if present.(u) then responses := (arrival.(u), response.(u)) :: !responses
    done;
  let response_sum = Array.fold_left ( +. ) 0. rs in
  let response_max = Array.fold_left max 0. rs in
  let percentile = percentiles_of rs in
  (match telemetry with
  | Some sink when not private_sink ->
      let h = Tel.Metrics.histogram sink.Tel.Sink.metrics "sim.response_s" in
      Array.iter (Tel.Histogram.record h) rs;
      let cn = Tel.Sink.cn telemetry in
      cn "sim.events" !events_processed;
      cn "sim.offered" offered;
      cn "sim.completed" completed;
      cn "sim.retries" !retries;
      cn "sim.aborted" !aborted;
      cn "sim.timeouts" !timeouts;
      cn "sim.shed" !shed;
      cn "sim.hedged" !hedged;
      cn "sim.hedge_wins" !hedge_wins
  | _ -> ());
  Tel.Sink.push telemetry
    (Run_summary
       {
         at = makespan;
         offered;
         completed;
         aborted = !aborted;
         shed = !shed;
         timeouts = !timeouts;
         retries = !retries;
         hedged = !hedged;
         hedge_wins = !hedge_wins;
         offered_updates = !offered_updates;
         completed_updates = !completed_updates;
       });
  (match (monitor, telemetry) with
  | Some m, Some sink when monitor_owns_attach ->
      Cdbs_analysis.Monitor.detach m sink
  | _ -> ());
  (match monitor with
  | Some m when Cdbs_core.Invariants.active () ->
      Cdbs_analysis.Monitor.check_exn ~context m
  | _ -> ());
  {
    run =
      {
        completed;
        makespan;
        throughput =
          (if makespan > 0. then float_of_int completed /. makespan else 0.);
        avg_response =
          (if completed > 0 then response_sum /. float_of_int completed
           else 0.);
        max_response = response_max;
        p50_response = percentile 50.;
        p95_response = percentile 95.;
        p99_response = percentile 99.;
        busy;
        utilization =
          Array.map (fun b -> if makespan > 0. then b /. makespan else 0.) busy;
        errors = !aborted;
      };
    offered;
    availability =
      (if offered > 0 then float_of_int completed /. float_of_int offered
       else 1.);
    retried_requests = Hashtbl.length retried;
    retries = !retries;
    aborted = !aborted;
    timeouts = !timeouts;
    shed = !shed;
    shed_updates = 0;
    (* updates are never shed; the field witnesses the invariant *)
    hedged = !hedged;
    hedge_wins = !hedge_wins;
    breaker_trips =
      (match breaker with
      | Some br -> Resilience.Breaker.trips br
      | None -> 0);
    wasted_work = !wasted_work;
    offered_updates = !offered_updates;
    completed_updates = !completed_updates;
    cancelled_work = !cancelled_work;
    catch_up_mb = !catch_up_mb;
    recoveries = List.rev !recoveries;
    downtime;
    max_concurrent_down = !max_down;
    events = !events_processed;
    responses = !responses;
  }

(* ------------------------------------------------------------------ *)
(* Entry points: configurations of the one clock                        *)
(* ------------------------------------------------------------------ *)

(* Batch and open replay: no faults and no retries, so an unroutable
   request is an error. *)
let run_batch config alloc requests =
  (engine ~context:"Simulator.run_batch" ~batch:true config
     (Scheduler.create alloc) requests ~faults:[])
    .run

let run_open config alloc requests =
  (engine ~context:"Simulator.run_open" config (Scheduler.create alloc)
     requests ~faults:[])
    .run

let run_open_with_faults ?rng ?resilience ?telemetry ?monitor ?topology config
    alloc requests ~faults =
  engine ~context:"Simulator.run_open_with_faults" ~policy:Retry.default ?rng
    ?resilience
    ?telemetry ?monitor ?topology ~keep_responses:true
    config (Scheduler.create alloc) requests ~faults

let run_open_with_migration ?monitor config ~target ~schedule requests =
  let plan = schedule.Schedule.plan in
  let sched = Scheduler.create_dynamic target ~live:plan.Planner.old_sets in
  (* Expand-then-contract promises each class never drops below the
     smaller of its old and target replica counts. *)
  let target_replicas (c : Query_class.t) =
    Array.fold_left
      (fun acc set ->
        if Fragment.Set.subset c.Query_class.fragments set then acc + 1
        else acc)
      0 plan.Planner.target_sets
  in
  let floors =
    List.map
      (fun c ->
        let live = Scheduler.live_replicas sched c in
        (c, min live (target_replicas c), ref live))
      (Array.to_list (Allocation.classes target))
  in
  let m = { schedule; floors; replayed = 0. } in
  let fo =
    engine ~context:"Simulator.run_open_with_migration" ?monitor
      ~migration:m ~keep_responses:true config sched requests ~faults:[]
  in
  {
    run = fo.run;
    copied_mb = plan.Planner.copy_mb;
    replayed_mb = m.replayed;
    copy_done = schedule.Schedule.copy_done;
    drops_at = schedule.Schedule.drops_at;
    min_live_replicas =
      List.map
        (fun ((c : Query_class.t), _, low) -> (c.Query_class.id, !low))
        floors;
    target_deployed =
      Array.for_all2 Fragment.Set.equal
        (Array.init plan.Planner.num_physical (fun b ->
             Scheduler.live_fragments sched ~backend:b))
        plan.Planner.target_sets;
    responses = fo.responses;
  }
