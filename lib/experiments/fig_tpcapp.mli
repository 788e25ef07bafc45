(** TPC-App experiments: Figs. 4(f)–4(i) of the paper. *)

val fig4f_4g : unit -> (Common.strategy * (int * float * float) list) list
(** Per strategy and backend count (1, 2, 4, 6, 8, 10): (backends,
    throughput q/s, speedup), the mean of 3 runs of 8000 requests.  Covers
    both Fig. 4(f) (speedup) and Fig. 4(g) (throughput). *)

val theoretical : unit -> (string * float) list
(** The paper's closed-form predictions: Eq. 29 (full replication cap,
    3.07) and Eq. 30 (partial allocation cap, 7.7). *)

val print_all : unit -> unit
