module Schema = Cdbs_storage.Schema
module Journal = Cdbs_core.Journal
module Request = Cdbs_cluster.Request
module Rng = Cdbs_util.Rng

let s w = Schema.T_string w
let i = Schema.T_int

let schema : Schema.t =
  [
    Schema.table "users" ~primary_key:[ "u_id" ]
      [
        ("u_id", i); ("u_name", s 30); ("u_passwd", s 20); ("u_email", s 50);
        ("u_last_login", s 19);
      ];
    Schema.table "courses" ~primary_key:[ "crs_id" ]
      [
        ("crs_id", i); ("crs_title", s 80); ("crs_teacher", i);
        ("crs_term", s 10);
      ];
    Schema.table "content" ~primary_key:[ "ct_id" ]
      [
        ("ct_id", i); ("ct_crs_id", i); ("ct_title", s 80);
        ("ct_body", s 2000); ("ct_kind", s 10);
      ];
    Schema.table "forum" ~primary_key:[ "f_id" ]
      [
        ("f_id", i); ("f_crs_id", i); ("f_author", i); ("f_posted", s 19);
        ("f_body", s 800);
      ];
    Schema.table "quiz" ~primary_key:[ "qz_id" ]
      [
        ("qz_id", i); ("qz_crs_id", i); ("qz_user", i); ("qz_score", i);
        ("qz_answers", s 400); ("qz_submitted", s 19);
      ];
  ]

let row_counts =
  [
    ("users", 40_000); ("courses", 800); ("content", 60_000);
    ("forum", 250_000); ("quiz", 400_000);
  ]

(* Piecewise-linear day profile through the anchor points read off the
   paper's figure (requests per 10 minutes). *)
let anchors =
  [
    (0., 1500.); (3., 300.); (5., 200.); (6., 250.); (8., 1500.);
    (10., 3500.); (12., 3800.); (14., 3500.); (16., 3800.); (18., 4000.);
    (20., 4500.); (22., 3800.); (24., 1500.);
  ]

let rate_per_10min ~hour =
  let h = Float.rem (Float.rem hour 24. +. 24.) 24. in
  let rec interp = function
    | (h0, r0) :: ((h1, r1) :: _ as rest) ->
        if h >= h0 && h <= h1 then
          r0 +. ((r1 -. r0) *. (h -. h0) /. (h1 -. h0))
        else interp rest
    | _ -> 1500.
  in
  interp anchors

(* Class mix over the day (Fig. 6): B dominates 3 am - 8 am; A (content
   reading) follows the teaching day; C (forum) peaks in the evening; D
   (logins) spikes morning and evening; E (catalog) stays low. *)
let class_mix ~hour =
  let h = Float.rem (Float.rem hour 24. +. 24.) 24. in
  let bump center width =
    let d = min (abs_float (h -. center)) (24. -. abs_float (h -. center)) in
    exp (-.(d *. d) /. (2. *. width *. width))
  in
  let a = 0.05 +. (0.5 *. bump 14. 4.) in
  let b = if h >= 3. && h < 8. then 0.65 else 0.06 in
  let c = 0.05 +. (0.35 *. bump 20. 3.) in
  let d = 0.05 +. (0.2 *. bump 9. 1.5) +. (0.15 *. bump 19. 2.) in
  let e = 0.08 in
  let total = a +. b +. c +. d +. e in
  [
    ("A", a /. total); ("B", b /. total); ("C", c /. total);
    ("D", d /. total); ("E", e /. total);
  ]

(* Footprint, per-request work and representative SQL of each class. *)
let class_defs =
  [
    ("A", [ ("content", []); ("courses", []) ], 0.6,
     "SELECT ct_title, ct_body FROM content, courses \
      WHERE ct_crs_id = crs_id AND crs_term = 'F09'");
    ("B", [ ("quiz", []); ("users", []) ], 1.2,
     "SELECT u_name, qz_score FROM quiz, users \
      WHERE qz_user = u_id AND qz_submitted > '2009-10-19'");
    ("C", [ ("forum", []); ("users", []) ], 0.4,
     "SELECT f_body, u_name FROM forum, users \
      WHERE f_author = u_id ORDER BY f_posted DESC LIMIT 50");
    ("D", [ ("users", []) ], 0.05,
     "SELECT u_id, u_passwd FROM users WHERE u_name = 'student'");
    ("E", [ ("courses", []) ], 0.05,
     "SELECT crs_id, crs_title FROM courses WHERE crs_term = 'F09'");
  ]

let update_defs =
  [
    ("U_forum", [ ("forum", []) ], 0.03, 0.3,
     "INSERT INTO forum (f_id, f_crs_id, f_author, f_posted, f_body) \
      VALUES (1, 1, 1, '2009-10-20', 'post')");
    ("U_users", [ ("users", []) ], 0.02, 0.15,
     "UPDATE users SET u_last_login = '2009-10-20' WHERE u_id = 1");
  ]

let read_share = 0.95

let normalize_mix mix =
  let total =
    List.fold_left
      (fun acc (id, _) ->
        acc +. max 0. (Option.value ~default:0. (List.assoc_opt id mix)))
      0.
      (List.map (fun (id, _, _, _) -> (id, ())) class_defs)
  in
  let total = if total > 0. then total else 1. in
  fun id -> max 0. (Option.value ~default:0. (List.assoc_opt id mix)) /. total

let specs_of_mix ~mix =
  let share = normalize_mix mix in
  List.map
    (fun (id, footprint, mb, _) ->
      Spec.read id footprint ~weight:(read_share *. share id) ~request_mb:mb)
    class_defs
  @ List.map
      (fun (id, footprint, w, mb, _) ->
        Spec.update id footprint ~weight:w ~request_mb:mb)
      update_defs

let specs_at ~hour = specs_of_mix ~mix:(class_mix ~hour)

(* [mix_at] for an arbitrary read mix: the full normalized weight
   vector (reads scaled into the read share, fixed update weights) that
   [specs_of_mix] encodes. *)
let mix_of ~mix =
  let share = normalize_mix mix in
  List.map (fun (id, _, _, _) -> (id, read_share *. share id)) class_defs
  @ List.map (fun (id, _, w, _, _) -> (id, w)) update_defs

let mix_at ~hour = mix_of ~mix:(class_mix ~hour)

let workload_of_mix ~mix =
  Spec.to_workload ~schema ~rows:row_counts ~granularity:`Table
    (specs_of_mix ~mix)

let workload_at ~hour = workload_of_mix ~mix:(class_mix ~hour)

let journal_for_day ~rng ~scale =
  ignore rng;
  let journal = Journal.create () in
  let step_minutes = 30. in
  let windows = int_of_float (24. *. 60. /. step_minutes) in
  for w = 0 to windows - 1 do
    let hour = float_of_int w *. step_minutes /. 60. in
    let at = hour *. 3600. in
    let rate = rate_per_10min ~hour *. scale in
    let window_cost = rate *. step_minutes /. 10. in
    let mix = class_mix ~hour in
    List.iter
      (fun (id, _, mb, sql) ->
        let share = Option.value ~default:0. (List.assoc_opt id mix) in
        let cost = window_cost *. share *. mb in
        if cost > 0. then Journal.record_at journal ~at ~sql ~cost)
      class_defs;
    List.iter
      (fun (_, _, w_up, mb, sql) ->
        Journal.record_at journal ~at ~sql ~cost:(window_cost *. w_up *. mb))
      update_defs
  done;
  journal
