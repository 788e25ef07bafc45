module Fault = Cdbs_faults.Fault
module Chaos = Cdbs_faults.Chaos

let extreme_slowdown = 10.

let check_schedule ?k ~num_backends (schedule : Fault.schedule) =
  match Fault.validate ~num_backends schedule with
  | Error e ->
      [
        Diagnostic.error ~code:"FLT001" ~subject:"schedule"
          "structurally invalid fault schedule: %s" e;
      ]
  | Ok () ->
      let diags = ref [] in
      let add d = diags := d :: !diags in
      let bsub b = Printf.sprintf "backend B%d" (b + 1) in
      (* A partition expands into crash/recover-shaped windows so the
         down-set walk below covers it: a partitioned backend is as
         unreachable as a crashed one.  Validation already guaranteed the
         windows don't overlap other events, so the expansion preserves
         per-backend alternation; it also rejected every zone outage,
         which needs a topology. *)
      let expand ({ Fault.at; event } as te) =
        match event with
        | Fault.Partition { duration; backends = bs } ->
            if List.length bs >= num_backends then
              add
                (Diagnostic.warning ~code:"FLT009" ~subject:"schedule"
                   ~data:[ ("at", Diagnostic.Num at) ]
                   "correlated fault at %g isolates every backend: a \
                    whole-cluster blackout no placement can survive"
                   at);
            List.concat_map
              (fun b ->
                [ Fault.crash ~at b; Fault.recover ~at:(at +. duration) b ])
              bs
        | _ -> [ te ]
      in
      (* Walk the validated (hence alternation-correct) timeline tracking
         the down set. *)
      let down_at = Array.make (max 1 num_backends) nan in
      let cur_down = ref 0 and peak_down = ref 0 and peak_at = ref 0. in
      List.iter
        (fun { Fault.at; event } ->
          match event with
          | Fault.Crash b ->
              down_at.(b) <- at;
              incr cur_down;
              if !cur_down > !peak_down then begin
                peak_down := !cur_down;
                peak_at := at
              end
          | Fault.Recover b ->
              if at <= down_at.(b) then
                add
                  (Diagnostic.warning ~code:"FLT007" ~subject:(bsub b)
                     ~data:[ ("at", Diagnostic.Num at) ]
                     "zero-length down window at %g: the crash is a no-op \
                      fault"
                     at);
              down_at.(b) <- nan;
              decr cur_down
          | Fault.Slowdown { backend = b; factor; _ } ->
              if factor >= extreme_slowdown then
                add
                  (Diagnostic.warning ~code:"FLT006" ~subject:(bsub b)
                     ~data:[ ("factor", Diagnostic.Num factor) ]
                     "slowdown factor %gx is crash-like but invisible to \
                      crash handling (consider a crash/recover pair)"
                     factor)
          | Fault.Partition _ | Fault.ZoneOutage _ ->
              (* Removed by the expansion below; unreachable. *)
              ()
          | Fault.Workload_shift _ ->
              (* Drift targets no backend; nothing to track here. *)
              ())
        (Fault.sort (List.concat_map expand (Fault.sort schedule)));
      Array.iteri
        (fun b at ->
          if not (Float.is_nan at) then
            add
              (Diagnostic.warning ~code:"FLT002" ~subject:(bsub b)
                 ~data:[ ("crashed_at", Diagnostic.Num at) ]
                 "crash at %g is never recovered (permanent failure)" at))
        down_at;
      (match k with
      | Some k when !peak_down > k ->
          add
            (Diagnostic.warning ~code:"FLT004" ~subject:"schedule"
               ~data:
                 [
                   ("peak_down", Diagnostic.Int !peak_down);
                   ("k", Diagnostic.Int k);
                   ("at", Diagnostic.Num !peak_at);
                 ]
               "%d backends down simultaneously at %g exceeds the k=%d \
                availability guarantee"
               !peak_down !peak_at k)
      | _ -> ());
      Diagnostic.sort !diags

let check_params ?k (p : Chaos.params) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let subject = "chaos" in
  let pos name v =
    if (not (Float.is_finite v)) || v <= 0. then
      add
        (Diagnostic.error ~code:"FLT008" ~subject
           ~data:[ (name, Diagnostic.Num v) ]
           "%s %g is not a positive duration" name v)
  in
  pos "mtbf" p.Chaos.mtbf;
  pos "mttr" p.Chaos.mttr;
  pos "horizon" p.Chaos.horizon;
  if
    (not (Float.is_finite p.Chaos.slowdown_prob))
    || p.Chaos.slowdown_prob < 0.
    || p.Chaos.slowdown_prob > 1.
  then
    add
      (Diagnostic.error ~code:"FLT008" ~subject
         ~data:[ ("slowdown_prob", Diagnostic.Num p.Chaos.slowdown_prob) ]
         "slowdown_prob %g outside [0, 1]" p.Chaos.slowdown_prob);
  if p.Chaos.slowdown_prob > 0. && p.Chaos.slowdown_factor < 1. then
    add
      (Diagnostic.error ~code:"FLT008" ~subject
         ~data:[ ("slowdown_factor", Diagnostic.Num p.Chaos.slowdown_factor) ]
         "slowdown_factor %g < 1 would speed backends up"
         p.Chaos.slowdown_factor);
  (match p.Chaos.max_concurrent_down with
  | Some c when c < 1 ->
      add
        (Diagnostic.error ~code:"FLT008" ~subject
           ~data:[ ("max_concurrent_down", Diagnostic.Int c) ]
           "max_concurrent_down %d < 1 suppresses every crash" c)
  | _ -> ());
  if
    Float.is_finite p.Chaos.mtbf
    && Float.is_finite p.Chaos.mttr
    && p.Chaos.mtbf > 0.
    && p.Chaos.mttr >= p.Chaos.mtbf
  then
    add
      (Diagnostic.warning ~code:"FLT003" ~subject
         ~data:
           [
             ("mtbf", Diagnostic.Num p.Chaos.mtbf);
             ("mttr", Diagnostic.Num p.Chaos.mttr);
           ]
         "MTTR %g s meets or exceeds MTBF %g s: backends spend more time \
          down than up"
         p.Chaos.mttr p.Chaos.mtbf);
  (match (k, p.Chaos.max_concurrent_down) with
  | Some k, Some c when c > k ->
      add
        (Diagnostic.warning ~code:"FLT004" ~subject
           ~data:
             [ ("max_concurrent_down", Diagnostic.Int c);
               ("k", Diagnostic.Int k) ]
           "concurrent-down cap %d exceeds the k=%d availability guarantee"
           c k)
  | Some k, None ->
      add
        (Diagnostic.warning ~code:"FLT004" ~subject
           ~data:[ ("k", Diagnostic.Int k) ]
           "no concurrent-down cap: chaos may exceed the k=%d availability \
            guarantee"
           k)
  | _ -> ());
  if
    Float.is_finite p.Chaos.mtbf
    && Float.is_finite p.Chaos.horizon
    && p.Chaos.horizon > 0.
    && p.Chaos.horizon < p.Chaos.mtbf
  then
    add
      (Diagnostic.info ~code:"FLT005" ~subject
         ~data:
           [
             ("horizon", Diagnostic.Num p.Chaos.horizon);
             ("mtbf", Diagnostic.Num p.Chaos.mtbf);
           ]
         "horizon %g s is shorter than the MTBF %g s: most runs will see \
          no fault at all"
         p.Chaos.horizon p.Chaos.mtbf);
  if
    (not (Float.is_finite p.Chaos.partition_prob))
    || p.Chaos.partition_prob < 0.
    || p.Chaos.partition_prob > 1.
  then
    add
      (Diagnostic.error ~code:"FLT008" ~subject
         ~data:[ ("partition_prob", Diagnostic.Num p.Chaos.partition_prob) ]
         "partition_prob %g outside [0, 1]" p.Chaos.partition_prob);
  if p.Chaos.zones < 1 then
    add
      (Diagnostic.error ~code:"FLT008" ~subject
         ~data:[ ("zones", Diagnostic.Int p.Chaos.zones) ]
         "zones %d < 1: at least one fault domain is required" p.Chaos.zones);
  (match p.Chaos.correlated_mtbf with
  | Some m ->
      pos "correlated_mtbf" m;
      if p.Chaos.zones = 1 then
        add
          (Diagnostic.warning ~code:"FLT009" ~subject
             ~data:[ ("zones", Diagnostic.Int p.Chaos.zones) ]
             "correlated failures with a single zone isolate the whole \
              cluster at once: no placement can survive them")
  | None -> ());
  Diagnostic.sort !diags
