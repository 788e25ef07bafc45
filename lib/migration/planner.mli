(** Live migration planning: turning a Hungarian-matched {!Cdbs_core.Physical}
    deployment plan into an ordered sequence of per-fragment copy and drop
    steps that can execute while the cluster keeps serving.

    The plan follows the expand-then-contract discipline of online
    rebalancing: every copy completes (and its captured deltas are replayed)
    before any fragment is dropped, so the set of live replicas of every
    query class only grows during the copy phase and shrinks directly to the
    target placement at the final barrier.  A class therefore never loses
    its last live replica mid-move, and an initially k-safe placement stays
    k-safe throughout the migration whenever the target is k-safe.

    Copies are ordered smallest-transfer-first: cheap moves cut over early,
    which brings additional serving capacity online as soon as possible. *)

open Cdbs_core

type move = {
  fragment : Fragment.t;
  dest : int;  (** physical node that must receive the fragment *)
  source : int option;
      (** physical node shipping it ([None]: no running backend holds the
          fragment — it is extracted from the authoritative master copy) *)
  size : float;  (** megabytes on the wire *)
}

type drop = {
  victim : Fragment.t;
  at_backend : int;  (** physical node releasing the fragment *)
}

type plan = {
  num_physical : int;
      (** physical nodes alive at any point of the migration:
          [max old-count new-count] *)
  old_sets : Fragment.Set.t array;
      (** what each physical node stores when the migration starts
          (padded with empty sets for fresh nodes) *)
  target_sets : Fragment.Set.t array;
      (** what each physical node stores once the migration is complete
          (empty for decommissioned nodes) *)
  moves : move list;  (** copy steps, smallest-transfer-first *)
  drops : drop list;  (** applied only after every copy has cut over *)
  copy_mb : float;
      (** total megabytes shipped — the transfer of the minimum-transfer
          matching ({!Cdbs_core.Physical.plan_scaled}, Eq. 27) *)
  full_rebuild_mb : float;
      (** bytes a stop-the-world rebuild would ship (the entire target
          placement, Eq. 28 numerator) *)
}

val make : old_fragments:Fragment.Set.t list -> Allocation.t -> plan
(** Plan the live deployment of the target allocation onto backends that
    currently hold [old_fragments] (one set per running physical node; the
    counts may differ — extra old nodes are decommissioned, extra new
    logical backends land on fresh physical nodes). *)

val is_noop : plan -> bool
(** No data to ship and nothing to drop: the placement already matches. *)

val pp_move : move Fmt.t
val pp : plan Fmt.t
