type policy = { budget : float }

let make ~budget =
  if budget <= 0. then invalid_arg "Deadline.make: budget <= 0";
  { budget }
