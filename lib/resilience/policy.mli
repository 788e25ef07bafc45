(** The resilience policy bundle handed to the simulator/controller.

    Each defense is independently optional so experiments can isolate its
    contribution; [off] disables everything (legacy behaviour). *)

type t = {
  admission : Admission.policy option;
  breaker : Breaker.config option;
  hedge : Hedge.policy option;
  deadline : Deadline.policy option;
}

val off : t

val make :
  ?admission:Admission.policy ->
  ?breaker:Breaker.config ->
  ?hedge:Hedge.policy ->
  ?deadline:Deadline.policy ->
  unit ->
  t
