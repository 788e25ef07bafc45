(** TPC-H experiments: Figs. 4(a)–4(e) of the paper. *)

type row = {
  backends : int;
  throughput : float;  (** queries/second *)
  speedup : float;  (** vs. the 1-node baseline *)
}

val fig4a : unit -> (Common.strategy * row list) list
(** Throughput and speedup of full replication, table-based, column-based
    and random allocation on 1, 2, 4, 6, 8 and 10 backends, the mean of 3
    runs of 2000 requests. *)

val fig4c : unit -> (int * float * float * float) list
(** Degree of replication on 1, 2, 4, 6, 8 and 10 backends: (backends,
    full, table-based, column-based). *)

val fig4d : unit -> (int * float * float) list
(** Allocation (ETL) duration in minutes: (backends, full replication,
    column-based) on 1 to 7 backends. *)

val print_all : unit -> unit
(** Run every TPC-H figure and print its series.  Fig. 4(c)'s last row is
    the MIP's column-based degree on up to 7 backends ([nan] beyond): the
    best it found, not a proved optimum, since its 4000-node budget runs
    out first at 2, 4 and 6 backends. *)
