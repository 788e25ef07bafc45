(** TPC-App-style transactional workload (paper Sec. 4.2).

    An online-bookseller database scaled by the number of emulated browsers
    (EB); the paper's workload statistics are reproduced exactly:

    - read : write request ratio about 1 : 7 by count, while reads carry
      about 75 % of the processing weight;
    - one complex read class produces 50 % of the workload with only
      ~1.5 % of the requests;
    - the Order_Line write class carries ≈13 % of the weight, setting the
      theoretical speedup cap of 10/1.3 ≈ 7.7 on 10 backends (Eq. 30);
    - every queried table is also updated, so column-granular classes span
      whole tables and the column classification differs from the
      table-based one only by splitting reads (8 table-based vs 10
      column-based classes). *)

val schema : Cdbs_storage.Schema.t

val row_counts : eb:int -> (string * int) list
(** Cardinalities for EB emulated browsers (EB = 300 gives the paper's
    ≈280 MB database; EB = 12000 gives ≈8 GB). *)

val workload :
  granularity:[ `Table | `Column ] -> eb:int -> Cdbs_core.Workload.t

val requests :
  rng:Cdbs_util.Rng.t ->
  granularity:[ `Table | `Column ] ->
  eb:int ->
  n:int ->
  Cdbs_cluster.Request.t list

val workload_large_scale :
  granularity:[ `Table | `Column ] -> eb:int -> Cdbs_core.Workload.t

val requests_large_scale :
  rng:Cdbs_util.Rng.t -> eb:int -> n:int -> Cdbs_cluster.Request.t list

val update_weight : float
(** Total update share of the workload (0.25), the serial fraction in the
    paper's Eq. 29. *)

val order_line_weight : float
(** Weight of the Order_Line write class (0.13), the bound behind Eq. 30. *)
