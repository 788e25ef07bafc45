(** Load balance and replication histograms: Figs. 4(j)–4(l). *)

val fig4j : unit -> (int * float * float) list
(** Per backend count 1..10: (n, TPC-H deviation, TPC-App deviation) — the
    mean relative deviation of per-node busy time from the average,
    column-based allocation, averaged over 5 runs. *)

val fig4k : unit -> (int * float * float) list
(** Table-based replication histogram at 10 nodes: for each replica count
    1..10, the average number of tables replicated that often over 5 runs,
    for (TPC-H, TPC-App). *)

val print_all : unit -> unit
