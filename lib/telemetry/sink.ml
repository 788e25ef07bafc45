type t = { metrics : Metrics.t; trace : Trace.t }

let create ?capacity () =
  { metrics = Metrics.create (); trace = Trace.create ?capacity () }

let cn sink name n =
  match sink with
  | None -> ()
  | Some s -> Metrics.add (Metrics.counter s.metrics name) n

let push sink e = match sink with None -> () | Some s -> Trace.push s.trace e
let ev sink ~at name attrs = push sink (Trace.custom ~at name attrs)
