type t = {
  admission : Admission.policy option;
  breaker : Breaker.config option;
  hedge : Hedge.policy option;
  deadline : Deadline.policy option;
}

let off = { admission = None; breaker = None; hedge = None; deadline = None }

let default =
  {
    admission = Some Admission.default;
    breaker = Some Breaker.default_config;
    hedge = Some Hedge.default;
    deadline = Some Deadline.default;
  }

let make ?admission ?breaker ?hedge ?deadline () =
  { admission; breaker; hedge; deadline }
