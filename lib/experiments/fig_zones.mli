(** Zone-outage experiment: fault-domain-aware vs naive k-safe placement.

    Replica {e count} is the wrong safety metric under correlated
    failures: a k=1 allocation whose two copies share a rack loses both
    when the rack loses power.  This experiment builds the same k-safe
    allocation twice — once topology-blind, once domain-aware
    ({!Cdbs_core.Ksafety.allocate} with [?topology]) — and subjects each
    to an {e adversarial} full-zone outage: the victim zone is chosen,
    per placement, to maximize the request weight whose every replica
    dies with the zone.  Domain-aware placement leaves that weight at
    zero by construction, so it keeps serving; the naive placement
    collapses for the outage window. *)

type side = {
  label : string;  (** ["domain-aware"] or ["naive"] *)
  victim_zone : int;  (** the adversarially-chosen zone *)
  zone_members : int list;
  min_spread : int;
      (** minimum fault domains any class's replicas span *)
  spread_ok : bool;  (** {!Cdbs_core.Ksafety.spread_ok} before the outage *)
  dead_weight : float;
      (** request weight whose every replica lives in the victim zone *)
  effective_k_outage : int;  (** effective k while the zone is down *)
  availability : float;
  aborted : int;
  retried : int;
  p99_ms : float;
}

type report = {
  nodes : int;
  zones : int;
  k : int;
  outage_at : float;
  outage_ends : float;
  aware : side;
  naive : side;
  verdict : bool;
      (** aware availability >= 0.99 while naive < 0.90, same seed — the
          headline predicate *)
}

val compare_placements : unit -> report
(** 6 backends in 2 contiguous racks, k=1, 20 requests/s over 300 s, the
    zone down from t=75 s to t=225 s.  Both runs share the seed and the
    request list. *)

val print_all : unit -> unit
