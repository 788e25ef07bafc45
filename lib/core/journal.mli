(** Query journal — the multiset J of executed queries with their measured
    costs (paper Sec. 3.1).

    Each entry is one executed request; textually identical statements are
    the "same query" and their occurrence count is the multiset
    characteristic function j.  The weight of a class is computed from the
    summed costs, which the paper found to be an excellent estimator
    (Sec. 4.1). *)

type entry = {
  sql : string;
  cost : float;  (** measured execution time (or optimizer estimate) *)
  at : float;  (** submission timestamp in seconds; 0 if unknown *)
}

type t

val create : unit -> t
val record : t -> sql:string -> cost:float -> unit
(** Record an entry with timestamp 0 (order-only journals). *)

val record_at : t -> at:float -> sql:string -> cost:float -> unit
val length : t -> int
val entries : t -> entry list

val occurrences : t -> (string * int) list
(** The characteristic function j as an association list. *)

val between : t -> lo:float -> hi:float -> t
(** Sub-journal of entries with [lo <= at < hi]; used by the time-segmented
    allocation of Sec. 5. *)

val save_file : t -> string -> unit
(** Write the journal as text, one entry per line: [cost|at|sql].  Lines
    starting with [#] are comments. *)

val load_file : string -> (t, string) result
(** Parse a journal file.  Tolerant input: a line may be [cost|at|sql],
    [cost|sql] (timestamp 0) or bare SQL (cost 1); blank and [#] lines are
    skipped. *)
