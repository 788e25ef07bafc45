(** TPC-H-style read-only decision-support workload (paper Sec. 4.1).

    The 8-relation TPC-H schema with size-accurate column widths and the 19
    query classes the paper evaluates (queries 17, 20 and 21 are omitted,
    as in the paper, because the backends could not process them in
    reasonable time).  Class weights model the relative execution costs
    that the paper measured from the query history; footprints list the
    exact columns each query touches, which is what makes column-granular
    allocation so much cheaper than table-granular on this schema — nearly
    every query references the two fact tables that hold over 80 % of the
    data. *)

val schema : Cdbs_storage.Schema.t

val row_counts : sf:float -> (string * int) list
(** Cardinalities at the given scale factor (SF1 = the paper's 1 GB). *)

val specs : sf:float -> Spec.class_spec list
(** The 19 query-class specifications; weights normalized downstream. *)

val workload :
  granularity:[ `Table | `Column ] -> sf:float -> Cdbs_core.Workload.t

val requests :
  rng:Cdbs_util.Rng.t -> sf:float -> n:int -> Cdbs_cluster.Request.t list

val linked_database :
  rng:Cdbs_util.Rng.t -> rows:(string * int) list -> Cdbs_storage.Database.t
(** A database on {!schema} that the 19 queries of {!Tpch_queries} find
    rows in, with [rows]' counts per table ([region] and [nation] always
    hold TPC-H's 5 and 25, with 0-based keys and their real names).  Keys
    are 1..n, as {!Cdbs_storage.Datagen} makes them; every foreign key
    names an existing row, each [partsupp] row pairs a part with one of its
    four suppliers and each [lineitem] ships a part from one of them.
    Dates, flags, segments, priorities, brands, types, sizes, containers,
    ship modes and comments are drawn from the literals the queries test.
    {!Cdbs_storage.Datagen} draws keys from [0, 10^6) and strings as random
    letters, so on its data nearly every join of the queries is empty. *)
