(** Autonomic scaling policy (paper Sec. 5).

    The paper's autonomic CDBS scales the backend count up and down based
    on the average response time of the queries.  This policy adds the
    standard guards: hysteresis (distinct up/down thresholds) and a
    cooldown so a single noisy window cannot thrash the cluster. *)

type t

type decision =
  | Stay
  | Scale_to of int  (** new backend count *)

val create : unit -> t
(** 1–6 nodes: scale up (by 2 when badly overloaded) when the windowed
    average response time exceeds 0.018 s, scale down when it stays below
    0.0118 s {e and} utilization is low, with a cooldown of 1 window
    between scaling actions. *)

val decide :
  t -> current:int -> avg_response:float -> utilization:float -> decision
(** One decision per measurement window; call once per window so the
    cooldown counts correctly. *)
