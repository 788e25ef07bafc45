(** TPC-H experiments: Figs. 4(a)–4(e) of the paper. *)

type row = {
  backends : int;
  throughput : float;  (** queries/second *)
  speedup : float;  (** vs. the 1-node baseline *)
}

val fig4a :
  ?backend_counts:int list ->
  ?requests:int ->
  ?runs:int ->
  unit ->
  (Common.strategy * row list) list
(** Throughput and speedup of full replication, table-based, column-based
    and random allocation over cluster sizes. *)

val fig4c :
  ?backend_counts:int list -> ?optimal_up_to:int -> unit ->
  (int * float * float * float * float option) list
(** Degree of replication per backend count: (full, table, column,
    optimal-column when computed). *)

val fig4d : ?backend_counts:int list -> unit -> (int * float * float) list
(** Allocation (ETL) duration in minutes: (full replication, column-based)
    per backend count. *)

val print_all : unit -> unit
(** Run every TPC-H figure and print its series. *)
