type policy = {
  percentile : float;
  min_delay : float;
  min_observations : int;
  window : int;
}

let default =
  { percentile = 95.; min_delay = 0.05; min_observations = 20; window = 256 }

module Histogram = Cdbs_telemetry.Histogram

(* Two rotating histogram windows (current + previous) instead of a raw
   sample reservoir: [merged] is kept equal to their sum at all times, so
   [observe] is O(1) and [delay] is a single bucket walk — no per-call
   sorting, and the tracked population stays bounded between [window] and
   [2 * window] recent latencies. *)
type t = {
  policy : policy;
  mutable cur : Histogram.t;
  mutable prev : Histogram.t;
  merged : Histogram.t;
}

let create policy =
  {
    policy;
    cur = Histogram.create ();
    prev = Histogram.create ();
    merged = Histogram.create ();
  }

let observe t latency =
  Histogram.record t.cur latency;
  Histogram.record t.merged latency;
  if Histogram.count t.cur >= t.policy.window then begin
    let old = t.prev in
    Histogram.reset old;
    t.prev <- t.cur;
    t.cur <- old;
    Histogram.reset t.merged;
    Histogram.merge_into t.merged ~from:t.prev
  end

let observations t = Histogram.count t.merged

let delay t =
  if observations t < t.policy.min_observations then t.policy.min_delay
  else
    max t.policy.min_delay (Histogram.percentile t.merged t.policy.percentile)
