(** Statistical workload specifications.

    The paper's evaluation workloads are characterized by their query
    classes: which tables/columns each class touches, what fraction of the
    total processing cost it produces, and how much work a single request
    of the class performs.  This module turns such a specification into a
    {!Cdbs_core.Workload} at table or column granularity and into request
    streams for the simulator, keeping the two consistent: the expected
    per-class share of simulated work matches the class weight. *)

type kind = Read | Update

type class_spec = {
  id : string;
  kind : kind;
  footprint : (string * string list) list;
      (** [(table, columns)]; an empty column list means every column of
          the table *)
  weight : float;  (** share of the total workload cost *)
  request_mb : float;
      (** megabytes of work a single request performs (an update touches a
          row, a scan touches the footprint) *)
}

val read :
  string -> (string * string list) list -> weight:float -> request_mb:float ->
  class_spec

val update :
  string -> (string * string list) list -> weight:float -> request_mb:float ->
  class_spec

val to_workload :
  schema:Cdbs_storage.Schema.t ->
  rows:(string * int) list ->
  granularity:[ `Table | `Column ] ->
  class_spec list ->
  Cdbs_core.Workload.t
(** Build the classified workload: fragments are tables or columns with
    sizes from {!Cdbs_core.Classification.default_sizes}; weights are
    normalized. *)

val requests :
  rng:Cdbs_util.Rng.t ->
  n:int ->
  class_spec list ->
  Cdbs_cluster.Request.t list
(** [n] requests whose per-class counts are proportional to
    [weight / request_mb] (largest-remainder rounding), shuffled, each
    carrying its class's [request_mb] as the cost override. *)

val uniform_requests :
  rng:Cdbs_util.Rng.t ->
  n:int ->
  t0:float ->
  span:float ->
  class_spec list ->
  Cdbs_cluster.Request.t list
(** The one generator of timed request streams.  It draws the shuffled
    requests of {!requests}, then one [t0 +. Rng.float rng span] per
    request in that shuffled order, so each arrival is uniform in
    [\[t0, t0 + span)] and the generator ends where that draw leaves it.
    The stream comes back in arrival order: the stable sort of the drawn
    requests by [Float.compare] on arrival (ties keep the shuffled order),
    built through {!Cdbs_util.Stats.stable_order} on the unboxed keys.
    The simulator's open mode takes such a stream without re-sorting it. *)

val class_counts : n:int -> class_spec list -> (string * int) list
(** The deterministic per-class request counts used by {!requests}. *)
