(** Elastic-scaling experiments: the "Number of Active Servers" figure,
    Fig. 5 (response times with and without scaling), and Fig. 6 (query
    class mix over a day). *)

val fig6 : ?step_minutes:float -> unit -> (float * (string * float) list) list
(** Per time step: the requests/10min each of the five classes A–E
    contributes (rate x mix share). *)

val print_all : unit -> unit
