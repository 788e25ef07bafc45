type t = { mutable cooldown : int }

type decision =
  | Stay
  | Scale_to of int

let min_nodes = 1
let max_nodes = 6
let up_threshold = 0.018
let down_threshold = 0.0118
let cooldown_windows = 1

let create () = { cooldown = 0 }

let decide t ~current ~avg_response ~utilization =
  if t.cooldown > 0 then begin
    t.cooldown <- t.cooldown - 1;
    Stay
  end
  else if avg_response > up_threshold && current < max_nodes then begin
    t.cooldown <- cooldown_windows;
    (* Aggressive up, conservative down: overload hurts immediately, and a
       melted-down window (far above threshold) warrants a double step. *)
    let step = if avg_response > 6. *. up_threshold then 2 else 1 in
    Scale_to (min max_nodes (current + step))
  end
  else if
    avg_response < down_threshold
    && utilization < 0.35
    && current > min_nodes
  then begin
    t.cooldown <- cooldown_windows;
    Scale_to (current - 1)
  end
  else Stay
