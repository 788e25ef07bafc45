type t = {
  admission : Admission.policy option;
  breaker : Breaker.config option;
  hedge : Hedge.policy option;
  deadline : Deadline.policy option;
}

let off = { admission = None; breaker = None; hedge = None; deadline = None }

let make ?admission ?breaker ?hedge ?deadline () =
  { admission; breaker; hedge; deadline }
