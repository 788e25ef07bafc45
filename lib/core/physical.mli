(** Physical allocation: deploying a newly computed allocation onto backends
    that already hold data (paper Sec. 3.4), and elastic scale-out/scale-in
    (Sec. 5).

    The mapping of new to old backends is a minimum-cost perfect matching in
    a complete bipartite graph whose edge weight is the size of the data
    that would have to be shipped (Eq. 27); the Hungarian method solves it
    in O(n³).  For scaling, the smaller side is padded with empty virtual
    backends. *)

type plan = {
  mapping : int array;
      (** [mapping.(v) = u]: new backend v is deployed on old backend u;
          [-1] for a fresh (previously empty) node *)
  transfer : float;  (** total fragment size to ship and load *)
  per_backend : float array;  (** data shipped to each new backend *)
}

val transfer_cost : old_fragments:Fragment.Set.t -> Fragment.Set.t -> float
(** Eq. 27: total size of the fragments a new backend needs that the old
    backend does not already hold. *)

val plan_scaled : old_fragments:Fragment.Set.t list -> Allocation.t -> plan
(** Cost-minimal deployment of the new allocation onto the running
    backends: [old_fragments] lists what each of them stores, as many
    entries as the allocation has backends, or fewer or more when the node
    count changes.  Extra old backends are decommissioned; extra new
    backends start empty. *)

val duration : plan -> fragmentation:float -> float
(** Estimated wall-clock seconds for the reallocation — the model behind
    Fig. 4(d): fragment preparation over the [fragmentation] volume at
    100 MB/s, serial network shipping of the plan's total transfer from
    the single source at 35 MB/s, and parallel bulk loading at 25 MB/s
    bounded by the slowest backend.  Full replication ships whole tables
    and has [fragmentation] 0. *)
