(** Load balance and replication histograms: Figs. 4(j)–4(l). *)

val fig4j :
  ?backend_counts:int list -> ?runs:int -> unit ->
  (int * float * float) list
(** Per backend count: (n, TPC-H deviation, TPC-App deviation) — the mean
    relative deviation of per-node busy time from the average, column-based
    allocation, averaged over the runs. *)

val fig4k : ?nodes:int -> ?runs:int -> unit -> (int * float * float) list
(** Table-based replication histogram at 10 nodes: for each replica count
    1..nodes, the average number of tables replicated that often, for
    (TPC-H, TPC-App). *)

val print_all : unit -> unit
