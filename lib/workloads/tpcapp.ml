module Schema = Cdbs_storage.Schema
module Classification = Cdbs_core.Classification
module Fragment = Cdbs_core.Fragment

let s w = Schema.T_string w
let i = Schema.T_int
let f = Schema.T_float

let schema : Schema.t =
  [
    Schema.table "customer" ~primary_key:[ "c_id" ]
      [
        ("c_id", i); ("c_uname", s 20); ("c_passwd", s 20); ("c_fname", s 15);
        ("c_lname", s 15); ("c_email", s 50); ("c_since", s 10);
        ("c_balance", f); ("c_discount", f); ("c_addr_id", i);
      ];
    Schema.table "address" ~primary_key:[ "addr_id" ]
      [
        ("addr_id", i); ("addr_street1", s 40); ("addr_street2", s 40);
        ("addr_city", s 30); ("addr_state", s 20); ("addr_zip", s 10);
        ("addr_co_id", i);
      ];
    Schema.table "country" ~primary_key:[ "co_id" ]
      [
        ("co_id", i); ("co_name", s 50); ("co_exchange", f);
        ("co_currency", s 18);
      ];
    Schema.table "author" ~primary_key:[ "a_id" ]
      [
        ("a_id", i); ("a_fname", s 20); ("a_lname", s 20); ("a_mname", s 20);
        ("a_dob", s 10); ("a_bio", s 500);
      ];
    Schema.table "item" ~primary_key:[ "i_id" ]
      [
        ("i_id", i); ("i_title", s 60); ("i_a_id", i); ("i_pub_date", s 10);
        ("i_publisher", s 60); ("i_subject", s 60); ("i_desc", s 500);
        ("i_srp", f); ("i_cost", f); ("i_avail", s 10); ("i_page", i);
        ("i_backing", s 15);
      ];
    Schema.table "stock" ~primary_key:[ "st_i_id" ]
      [ ("st_i_id", i); ("st_qty", i); ("st_reorder", i) ];
    Schema.table "orders" ~primary_key:[ "o_id" ]
      [
        ("o_id", i); ("o_c_id", i); ("o_date", s 10); ("o_sub_total", f);
        ("o_tax", f); ("o_total", f); ("o_ship_type", s 10);
        ("o_ship_date", s 10); ("o_status", s 15);
      ];
    Schema.table "order_line" ~primary_key:[ "ol_id" ]
      [
        ("ol_id", i); ("ol_o_id", i); ("ol_i_id", i); ("ol_qty", i);
        ("ol_discount", f); ("ol_comment", s 110);
      ];
  ]

let row_counts ~eb =
  [
    ("customer", 400 * eb);
    ("address", 600 * eb);
    ("country", 92);
    ("author", 25_000);
    ("item", 100_000);
    ("stock", 100_000);
    ("orders", 1_000 * eb);
    ("order_line", 3_000 * eb);
  ]

let update_weight = 0.25
let order_line_weight = 0.13

(* Scale per-request scan volumes with the database size relative to the
   paper's EB=300 baseline. *)
let mb_scale eb = float_of_int eb /. 300.

(* Update classes: every queried table is also updated (paper Sec. 4.2), so
   their footprints use whole tables (empty column list = all columns).
   Order_Line itself is write-only — order lines are written at checkout
   and only aggregated offline — which is what lets the allocator place its
   13% write class exclusively on one backend (the scale-1.3 bound behind
   Eq. 30). *)
let update_specs eb =
  let u = mb_scale eb in
  [
    Spec.update "U_order_line"
      [ ("order_line", []) ]
      ~weight:order_line_weight ~request_mb:(0.025 *. sqrt u);
    Spec.update "U_orders" [ ("orders", []) ] ~weight:0.04
      ~request_mb:(0.025 *. sqrt u);
    Spec.update "U_catalog"
      [ ("item", []); ("stock", []); ("author", []) ]
      ~weight:0.05 ~request_mb:(0.04 *. sqrt u);
    Spec.update "U_customer"
      [ ("customer", []); ("address", []); ("country", []) ]
      ~weight:0.03 ~request_mb:(0.03 *. sqrt u);
  ]

let table_read_specs eb =
  let m = mb_scale eb in
  [
    (* The one complex read class: 50% of the weight from ~1.5% of the
       requests (a catalog-wide search/recommendation join). *)
    Spec.read "R_catalog_search"
      [ ("item", []); ("author", []) ]
      ~weight:0.50 ~request_mb:(3.0 *. m);
    Spec.read "R_shopping"
      [ ("item", []); ("stock", []) ]
      ~weight:0.10 ~request_mb:(0.25 *. m);
    Spec.read "R_customer_lookup"
      [ ("customer", []); ("address", []); ("country", []) ]
      ~weight:0.08 ~request_mb:(0.12 *. m);
    Spec.read "R_order_status"
      [ ("customer", []); ("orders", []) ]
      ~weight:0.07 ~request_mb:(0.15 *. m);
  ]

(* Column granularity splits the reads more finely (10 classes in total,
   paper Sec. 4.2); updates still cover whole tables, which is why the
   column-based allocation ends up allocating complete tables. *)
let column_read_specs eb =
  let m = mb_scale eb in
  [
    Spec.read "R_catalog_search"
      [
        ("item", [ "i_id"; "i_title"; "i_a_id"; "i_subject"; "i_srp" ]);
        ("author", [ "a_id"; "a_fname"; "a_lname" ]);
      ]
      ~weight:0.30 ~request_mb:(2.2 *. m);
    Spec.read "R_recommendations"
      [
        ("item", [ "i_id"; "i_title"; "i_a_id"; "i_publisher"; "i_pub_date" ]);
        ("author", [ "a_id"; "a_lname"; "a_bio" ]);
      ]
      ~weight:0.20 ~request_mb:(1.8 *. m);
    Spec.read "R_shopping"
      [
        ("item", [ "i_id"; "i_title"; "i_srp"; "i_avail" ]);
        ("stock", [ "st_i_id"; "st_qty" ]);
      ]
      ~weight:0.10 ~request_mb:(0.25 *. m);
    Spec.read "R_customer_lookup"
      [
        ("customer", [ "c_id"; "c_uname"; "c_passwd"; "c_fname"; "c_lname" ]);
        ("address", [ "addr_id"; "addr_street1"; "addr_city"; "addr_zip" ]);
        ("country", [ "co_id"; "co_name" ]);
      ]
      ~weight:0.08 ~request_mb:(0.12 *. m);
    Spec.read "R_order_status"
      [
        ("customer", [ "c_id"; "c_uname" ]);
        ("orders", [ "o_id"; "o_c_id"; "o_status"; "o_ship_date" ]);
      ]
      ~weight:0.04 ~request_mb:(0.15 *. m);
    Spec.read "R_order_history"
      [
        ("customer", [ "c_id" ]);
        ("orders", [ "o_id"; "o_c_id"; "o_date"; "o_total" ]);
      ]
      ~weight:0.03 ~request_mb:(0.12 *. m);
  ]

(* Large-scale profile (Fig. 4(i)): heavier updates, ~1:1 request mix. *)
let specs_large_scale ~eb =
  let m = mb_scale eb in
  [
    Spec.read "R_catalog_search"
      [ ("item", []); ("author", []) ]
      ~weight:0.30 ~request_mb:(2.0 *. m);
    Spec.read "R_shopping"
      [ ("item", []); ("stock", []) ]
      ~weight:0.15 ~request_mb:(0.5 *. m);
    Spec.read "R_order_status"
      [ ("customer", []); ("orders", []) ]
      ~weight:0.10 ~request_mb:(0.35 *. m);
    Spec.update "U_order_line" [ ("order_line", []) ] ~weight:0.25
      ~request_mb:(0.5 *. sqrt m);
    Spec.update "U_orders" [ ("orders", []) ] ~weight:0.12
      ~request_mb:(0.4 *. sqrt m);
    Spec.update "U_catalog"
      [ ("item", []); ("stock", []); ("author", []) ]
      ~weight:0.05 ~request_mb:(0.3 *. sqrt m);
    Spec.update "U_customer"
      [ ("customer", []); ("address", []); ("country", []) ]
      ~weight:0.03 ~request_mb:(0.3 *. sqrt m);
  ]

let workload_large_scale ~granularity ~eb =
  Spec.to_workload ~schema ~rows:(row_counts ~eb) ~granularity
    (specs_large_scale ~eb)

let requests_large_scale ~rng ~eb ~n =
  Spec.requests ~rng ~n (specs_large_scale ~eb)

let specs ~granularity ~eb =
  match granularity with
  | `Table -> table_read_specs eb @ update_specs eb
  | `Column -> column_read_specs eb @ update_specs eb

let workload ~granularity ~eb =
  Spec.to_workload ~schema ~rows:(row_counts ~eb) ~granularity
    (specs ~granularity ~eb)

let requests ~rng ~granularity ~eb ~n =
  Spec.requests ~rng ~n (specs ~granularity ~eb)
