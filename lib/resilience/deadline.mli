(** End-to-end deadline budgets.

    A request enters the system with a fixed time budget measured from its
    arrival.  Everything that happens on its behalf — queueing, service,
    retry backoffs, hedged attempts — spends the same budget, so failover
    stops when the budget is exhausted rather than after a fixed attempt
    count.  Clients are assumed to abandon the request at its deadline:
    work completing later is wasted capacity, and the defended dispatch
    path refuses it up front. *)

type policy = { budget : float  (** seconds of end-to-end budget *) }

val make : budget:float -> policy
(** @raise Invalid_argument when [budget <= 0]. *)
