type state = Closed | Open | Half_open

let state_label = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half_open"

type config = {
  ewma_alpha : float;
  latency_factor : float;
  min_samples : int;
  error_window : int;
  error_threshold : float;
  cool_down : float;
  probes : int;
}

let default_config =
  {
    ewma_alpha = 0.2;
    latency_factor = 2.;
    min_samples = 20;
    error_window = 20;
    error_threshold = 0.5;
    cool_down = 10.;
    probes = 3;
  }

let make_config ?(ewma_alpha = default_config.ewma_alpha)
    ?(latency_factor = default_config.latency_factor)
    ?(min_samples = default_config.min_samples)
    ?(error_window = default_config.error_window)
    ?(error_threshold = default_config.error_threshold)
    ?(cool_down = default_config.cool_down) ?(probes = default_config.probes)
    () =
  if ewma_alpha <= 0. || ewma_alpha > 1. then
    invalid_arg "Breaker.make_config: ewma_alpha must be in (0, 1]";
  if latency_factor < 1. then
    invalid_arg "Breaker.make_config: latency_factor < 1";
  if min_samples < 1 then invalid_arg "Breaker.make_config: min_samples < 1";
  if error_window < 1 then invalid_arg "Breaker.make_config: error_window < 1";
  if error_threshold <= 0. || error_threshold > 1. then
    invalid_arg "Breaker.make_config: error_threshold must be in (0, 1]";
  if cool_down <= 0. then invalid_arg "Breaker.make_config: cool_down <= 0";
  if probes < 1 then invalid_arg "Breaker.make_config: probes < 1";
  {
    ewma_alpha;
    latency_factor;
    min_samples;
    error_window;
    error_threshold;
    cool_down;
    probes;
  }

type backend = {
  mutable st : state;
  mutable ewma : float;
  mutable samples : int;
  window : bool array; (* true = failure *)
  mutable w_len : int;
  mutable w_pos : int;
  mutable w_failures : int;
  mutable opened_at : float;
  mutable probe_successes : int;
}

type t = {
  config : config;
  backends : backend array;
  peers : float array;  (* reused by [peer_median] *)
  mutable trips : int;
  mutable hook : (backend:int -> state -> unit) option;
}

let fresh cfg =
  {
    st = Closed;
    ewma = 0.;
    samples = 0;
    window = Array.make cfg.error_window false;
    w_len = 0;
    w_pos = 0;
    w_failures = 0;
    opened_at = neg_infinity;
    probe_successes = 0;
  }

let create ?(config = default_config) ?on_transition n =
  if n < 1 then invalid_arg "Breaker.create: need at least one backend";
  {
    config;
    backends = Array.init n (fun _ -> fresh config);
    peers = Array.make n 0.;
    trips = 0;
    hook = on_transition;
  }

let set_on_transition t hook = t.hook <- hook

let notify t ~backend st =
  match t.hook with None -> () | Some f -> f ~backend st

let config t = t.config
let num_backends t = Array.length t.backends
let get t b = t.backends.(b)

let reset_stats be =
  be.ewma <- 0.;
  be.samples <- 0;
  be.w_len <- 0;
  be.w_pos <- 0;
  be.w_failures <- 0;
  Array.fill be.window 0 (Array.length be.window) false

let trip t ~backend ~now =
  let be = get t backend in
  if be.st <> Open then begin
    t.trips <- t.trips + 1;
    notify t ~backend Open
  end;
  be.st <- Open;
  be.opened_at <- now;
  be.probe_successes <- 0

let state t ~backend = (get t backend).st

let allows t ~backend ~now =
  let be = get t backend in
  match be.st with
  | Closed | Half_open -> true
  | Open ->
      if now -. be.opened_at >= t.config.cool_down then begin
        be.st <- Half_open;
        be.probe_successes <- 0;
        notify t ~backend Half_open;
        true
      end
      else false

(* Median EWMA over peers that have at least one sample, ordered by
   insertion into a buffer the breaker owns; [nan] when no peer has one,
   which every [m > 0.] guard below rejects. *)
let peer_median t b =
  let xs = t.peers and m = ref 0 in
  for i = 0 to Array.length t.backends - 1 do
    let be = t.backends.(i) in
    if i <> b && be.samples > 0 then begin
      let x = be.ewma and j = ref !m in
      while !j > 0 && Float.compare xs.(!j - 1) x > 0 do
        xs.(!j) <- xs.(!j - 1);
        decr j
      done;
      xs.(!j) <- x;
      incr m
    end
  done;
  if !m = 0 then nan else (xs.((!m - 1) / 2) +. xs.(!m / 2)) /. 2.

let push_window cfg be ~failure =
  if be.w_len = cfg.error_window then begin
    if be.window.(be.w_pos) then be.w_failures <- be.w_failures - 1
  end
  else be.w_len <- be.w_len + 1;
  be.window.(be.w_pos) <- failure;
  if failure then be.w_failures <- be.w_failures + 1;
  be.w_pos <- (be.w_pos + 1) mod cfg.error_window

let error_tripped cfg be =
  be.w_len >= cfg.error_window
  && float_of_int be.w_failures /. float_of_int be.w_len >= cfg.error_threshold

let latency_tripped t b be =
  be.samples >= t.config.min_samples
  &&
  let m = peer_median t b in
  m > 0. && be.ewma > t.config.latency_factor *. m

let record_success t ~backend ~now ~latency =
  let cfg = t.config in
  let be = get t backend in
  be.ewma <-
    (if be.samples = 0 then latency
     else (cfg.ewma_alpha *. latency) +. ((1. -. cfg.ewma_alpha) *. be.ewma));
  be.samples <- be.samples + 1;
  push_window cfg be ~failure:false;
  match be.st with
  | Open -> () (* stray completion of work booked before the trip *)
  | Half_open ->
      (* A probe is judged by its own latency, not the (stale) EWMA. *)
      let probe_slow =
        let m = peer_median t backend in
        m > 0. && latency > cfg.latency_factor *. m
      in
      if probe_slow then trip t ~backend ~now
      else begin
        be.probe_successes <- be.probe_successes + 1;
        if be.probe_successes >= cfg.probes then begin
          be.st <- Closed;
          reset_stats be;
          notify t ~backend Closed
        end
      end
  | Closed -> if latency_tripped t backend be then trip t ~backend ~now

let record_failure t ~backend ~now =
  let cfg = t.config in
  let be = get t backend in
  push_window cfg be ~failure:true;
  match be.st with
  | Open -> ()
  | Half_open -> trip t ~backend ~now
  | Closed -> if error_tripped cfg be then trip t ~backend ~now

let force_open t ~backend ~now = trip t ~backend ~now

let force_close t ~backend =
  let be = get t backend in
  if be.st <> Closed then notify t ~backend Closed;
  be.st <- Closed;
  be.probe_successes <- 0;
  reset_stats be

let ewma t ~backend =
  let be = get t backend in
  if be.samples = 0 then None else Some be.ewma

let trips t = t.trips
