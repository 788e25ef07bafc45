(** The paper's worked examples as executable artifacts: the Section 3
    read-only tables (2 and 4 backends), the Appendix A heterogeneous
    update-aware allocation, and the closed-form speedup predictions. *)

val print_all : unit -> unit
