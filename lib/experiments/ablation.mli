(** Ablation studies for the design choices DESIGN.md calls out:
    greedy vs. memetic vs. exact allocation quality, the contribution of
    the two local-search strategies, k-safety overhead, and robustness
    hardening. *)

val local_search_contribution : unit -> (string * float * float) list
(** Memetic with no local search / strategy 1 only / both, on TPC-App:
    (variant, scale, stored). *)

val protocol_comparison : unit -> (string * string * float * float) list
(** Update-propagation protocols (ROWA / primary copy / lazy, Sec. 2) on
    TPC-App with 8 backends, for full replication and the table-based
    allocation: (allocation, protocol, throughput q/s, avg response s). *)

val print_all : unit -> unit
