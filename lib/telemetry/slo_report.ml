type t = {
  duration_s : float;
  offered : int;
  completed : int;
  shed : int;
  failed : int;
  availability : float;
  p50_s : float;
  p95_s : float;
  p99_s : float;
  mean_s : float;
  shed_rate : float;
  wasted_work_s : float;
  retries : int;
  hedges : int;
  bytes_moved_mb : float;
  migrations : int;
  faults_injected : int;
  trace_dropped : int;
  reallocations : int;
  rollbacks : int;
  drift_score : float;
  utilization : (int * float) list;
}

let availability_of ~offered ~completed =
  if offered <= 0 then 1. else float_of_int completed /. float_of_int offered

let of_histogram ~duration_s ~offered ~completed ~shed ~failed ~wasted_work_s
    ~retries ~hedges ~bytes_moved_mb ~migrations ~faults_injected
    ?(trace_dropped = 0) ?(reallocations = 0) ?(rollbacks = 0)
    ?(drift_score = 0.) ~utilization histo =
  {
    duration_s;
    offered;
    completed;
    shed;
    failed;
    availability = availability_of ~offered ~completed;
    p50_s = Histogram.quantile histo 0.5;
    p95_s = Histogram.quantile histo 0.95;
    p99_s = Histogram.quantile histo 0.99;
    mean_s = Histogram.mean histo;
    shed_rate =
      (if offered <= 0 then 0. else float_of_int shed /. float_of_int offered);
    wasted_work_s;
    retries;
    hedges;
    bytes_moved_mb;
    migrations;
    faults_injected;
    trace_dropped;
    reallocations;
    rollbacks;
    drift_score;
    utilization = List.sort (fun (a, _) (b, _) -> Int.compare a b) utilization;
  }

let pp ppf r =
  Fmt.pf ppf "duration          %10.0f s@\n" r.duration_s;
  Fmt.pf ppf "offered           %10d@\n" r.offered;
  Fmt.pf ppf "completed         %10d@\n" r.completed;
  Fmt.pf ppf "shed              %10d  (rate %.4f)@\n" r.shed r.shed_rate;
  Fmt.pf ppf "failed            %10d@\n" r.failed;
  Fmt.pf ppf "availability      %10.4f@\n" r.availability;
  Fmt.pf ppf "latency p50       %10.1f ms@\n" (1000. *. r.p50_s);
  Fmt.pf ppf "latency p95       %10.1f ms@\n" (1000. *. r.p95_s);
  Fmt.pf ppf "latency p99       %10.1f ms@\n" (1000. *. r.p99_s);
  Fmt.pf ppf "latency mean      %10.1f ms@\n" (1000. *. r.mean_s);
  Fmt.pf ppf "retries           %10d@\n" r.retries;
  Fmt.pf ppf "hedges            %10d@\n" r.hedges;
  Fmt.pf ppf "wasted work       %10.1f s@\n" r.wasted_work_s;
  Fmt.pf ppf "migrations        %10d  (%.1f MB moved)@\n" r.migrations
    r.bytes_moved_mb;
  Fmt.pf ppf "faults injected   %10d@\n" r.faults_injected;
  Fmt.pf ppf "reallocations     %10d  (%d rolled back)@\n" r.reallocations
    r.rollbacks;
  Fmt.pf ppf "drift score       %10.3f@\n" r.drift_score;
  if r.trace_dropped > 0 then
    Fmt.pf ppf "trace dropped     %10d  (ring overflow)@\n" r.trace_dropped;
  Fmt.pf ppf "utilization       %s"
    (String.concat " "
       (List.map
          (fun (b, u) -> Printf.sprintf "b%d=%.2f" b u)
          r.utilization))

let to_json r =
  let util =
    String.concat ","
      (List.map
         (fun (b, u) -> Printf.sprintf "\"%d\":%.4f" b u)
         r.utilization)
  in
  Printf.sprintf
    "{\"duration_s\":%.1f,\"offered\":%d,\"completed\":%d,\"shed\":%d,\
     \"failed\":%d,\"availability\":%.6f,\"p50_ms\":%.3f,\"p95_ms\":%.3f,\
     \"p99_ms\":%.3f,\"mean_ms\":%.3f,\"shed_rate\":%.6f,\
     \"wasted_work_s\":%.1f,\"retries\":%d,\"hedges\":%d,\
     \"bytes_moved_mb\":%.1f,\"migrations\":%d,\"faults_injected\":%d,\
     \"trace_dropped\":%d,\"reallocations\":%d,\"rollbacks\":%d,\
     \"drift_score\":%.4f,\"utilization\":{%s}}"
    r.duration_s r.offered r.completed r.shed r.failed r.availability
    (1000. *. r.p50_s) (1000. *. r.p95_s) (1000. *. r.p99_s)
    (1000. *. r.mean_s) r.shed_rate r.wasted_work_s r.retries r.hedges
    r.bytes_moved_mb r.migrations r.faults_injected r.trace_dropped
    r.reallocations r.rollbacks r.drift_score util

type gate = {
  min_availability : float option;
  max_p99_s : float option;
  max_shed_rate : float option;
}

let gate ?min_availability ?max_p99_s ?max_shed_rate () =
  { min_availability; max_p99_s; max_shed_rate }

let check g ~availability ~p99_s ~shed_rate =
  let viol = ref [] in
  (match g.max_shed_rate with
  | Some m when shed_rate > m ->
      viol :=
        Printf.sprintf "shed rate %.4f exceeds max %.4f" shed_rate m :: !viol
  | _ -> ());
  (match g.max_p99_s with
  | Some m when p99_s > m ->
      viol :=
        Printf.sprintf "p99 %.1f ms exceeds max %.1f ms" (1000. *. p99_s)
          (1000. *. m)
        :: !viol
  | _ -> ());
  (match g.min_availability with
  | Some m when availability < m ->
      viol :=
        Printf.sprintf "availability %.4f below min %.4f" availability m
        :: !viol
  | _ -> ());
  !viol
