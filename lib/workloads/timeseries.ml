module Schema = Cdbs_storage.Schema
module Journal = Cdbs_core.Journal
module Classification = Cdbs_core.Classification
module Rng = Cdbs_util.Rng

let s w = Schema.T_string w
let i = Schema.T_int

let schema : Schema.t =
  [
    Schema.table "events" ~primary_key:[ "ev_id" ]
      [
        ("ev_id", i); ("ev_day", i); ("ev_user", i); ("ev_kind", s 12);
        ("ev_payload", s 200);
      ];
    Schema.table "users" ~primary_key:[ "u_id" ]
      [ ("u_id", i); ("u_name", s 30) ];
    Schema.table "kinds" ~primary_key:[ "k_id" ]
      [ ("k_id", i); ("k_label", s 20) ];
  ]

let row_counts = [ ("events", 2_000_000); ("users", 50_000); ("kinds", 40) ]
(* The split specification for [Cdbs_core.Classification.By_predicate]:
   [ev_day] cut at days 90, 180 and 270. *)
let splits = [ ("events", "ev_day", [ 90.; 180.; 270. ]) ]

(* Statement templates: (relative frequency, cost per execution, SQL).
   Reads cover all four quarters with different intensities; the three
   maintenance update classes live in three DISJOINT ranges — appends at
   the head, corrections in the third quarter, retention deletes at the
   tail.  Table-granular classification chains all of them to every reader
   of [events]; range classification keeps each one local. *)
let templates =
  [
    (45., 0.5,
     "SELECT ev_id, ev_kind, ev_payload FROM events WHERE ev_day >= 280");
    (12., 1.3,
     "SELECT ev_id, ev_user FROM events WHERE ev_day >= 185 AND ev_day <= 265");
    (10., 1.0, "SELECT ev_id, ev_payload FROM events WHERE ev_day < 85");
    (8., 1.0,
     "SELECT ev_id, ev_kind FROM events WHERE ev_day BETWEEN 95 AND 175");
    (10., 0.3, "SELECT u_id, u_name FROM users WHERE u_id = 7");
    (15., 0.5,
     "INSERT INTO events (ev_id, ev_day, ev_user, ev_kind, ev_payload) \
      VALUES (1, 300, 1, 'click', 'x')");
    (5., 0.8, "DELETE FROM events WHERE ev_day <= 80");
    (4., 0.9,
     "UPDATE events SET ev_payload = 'fixed' WHERE ev_day >= 95 AND ev_day \
      <= 175");
  ]

let journal ~rng ~n =
  let total_freq = List.fold_left (fun acc (f, _, _) -> acc +. f) 0. templates in
  let journal = Journal.create () in
  for at = 0 to n - 1 do
    let pick = Rng.float rng total_freq in
    let rec choose acc = function
      | [ (_, cost, sql) ] -> (cost, sql)
      | (f, cost, sql) :: rest ->
          if pick < acc +. f then (cost, sql) else choose (acc +. f) rest
      | [] -> assert false
    in
    let cost, sql = choose 0. templates in
    Journal.record_at journal ~at:(float_of_int at) ~sql ~cost
  done;
  journal

let workload ~granularity ~rng ~n =
  let size_of = Classification.default_sizes ~schema ~rows:row_counts in
  let g =
    match granularity with
    | `Table -> Classification.By_table
    | `Column -> Classification.By_column
    | `Predicate -> Classification.By_predicate splits
  in
  Cdbs_core.Workload.normalize
    (Classification.classify ~schema ~size_of g (journal ~rng ~n))
