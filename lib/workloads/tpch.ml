module Schema = Cdbs_storage.Schema
module Classification = Cdbs_core.Classification
module Fragment = Cdbs_core.Fragment
module Allocation = Cdbs_core.Allocation
module Workload = Cdbs_core.Workload
module Query_class = Cdbs_core.Query_class

let s w = Schema.T_string w
let i = Schema.T_int
let f = Schema.T_float

let schema : Schema.t =
  [
    Schema.table "region" ~primary_key:[ "r_regionkey" ]
      [ ("r_regionkey", i); ("r_name", s 25); ("r_comment", s 152) ];
    Schema.table "nation" ~primary_key:[ "n_nationkey" ]
      [
        ("n_nationkey", i); ("n_name", s 25); ("n_regionkey", i);
        ("n_comment", s 152);
      ];
    Schema.table "supplier" ~primary_key:[ "s_suppkey" ]
      [
        ("s_suppkey", i); ("s_name", s 25); ("s_address", s 40);
        ("s_nationkey", i); ("s_phone", s 15); ("s_acctbal", f);
        ("s_comment", s 101);
      ];
    Schema.table "customer" ~primary_key:[ "c_custkey" ]
      [
        ("c_custkey", i); ("c_name", s 25); ("c_address", s 40);
        ("c_nationkey", i); ("c_phone", s 15); ("c_acctbal", f);
        ("c_mktsegment", s 10); ("c_comment", s 117);
      ];
    Schema.table "part" ~primary_key:[ "p_partkey" ]
      [
        ("p_partkey", i); ("p_name", s 55); ("p_mfgr", s 25);
        ("p_brand", s 10); ("p_type", s 25); ("p_size", i);
        ("p_container", s 10); ("p_retailprice", f); ("p_comment", s 23);
      ];
    Schema.table "partsupp" ~primary_key:[ "ps_partkey"; "ps_suppkey" ]
      [
        ("ps_partkey", i); ("ps_suppkey", i); ("ps_availqty", i);
        ("ps_supplycost", f); ("ps_comment", s 199);
      ];
    Schema.table "orders" ~primary_key:[ "o_orderkey" ]
      [
        ("o_orderkey", i); ("o_custkey", i); ("o_orderstatus", s 1);
        ("o_totalprice", f); ("o_orderdate", s 10); ("o_orderpriority", s 15);
        ("o_clerk", s 15); ("o_shippriority", i); ("o_comment", s 79);
      ];
    Schema.table "lineitem" ~primary_key:[ "l_orderkey"; "l_linenumber" ]
      [
        ("l_orderkey", i); ("l_partkey", i); ("l_suppkey", i);
        ("l_linenumber", i); ("l_quantity", f); ("l_extendedprice", f);
        ("l_discount", f); ("l_tax", f); ("l_returnflag", s 1);
        ("l_linestatus", s 1); ("l_shipdate", s 10); ("l_commitdate", s 10);
        ("l_receiptdate", s 10); ("l_shipinstruct", s 25); ("l_shipmode", s 10);
        ("l_comment", s 44);
      ];
  ]

let row_counts ~sf =
  let scale base = int_of_float (float_of_int base *. sf) in
  [
    ("region", 5);
    ("nation", 25);
    ("supplier", scale 10_000);
    ("customer", scale 150_000);
    ("part", scale 200_000);
    ("partsupp", scale 800_000);
    ("orders", scale 1_500_000);
    ("lineitem", scale 6_000_000);
  ]

(* A database the 19 queries find rows in: keys 1..n (region and nation
   keep TPC-H's 0-based 5 and 25), foreign keys drawn among existing rows,
   and the strings, dates and numbers the queries compare against drawn
   from the literals they test.  Dates follow a 12 x 28-day calendar, so
   every date is valid and their string order is their day order. *)
let regions = [| "AFRICA"; "AMERICA"; "ASIA"; "EUROPE"; "MIDDLE EAST" |]

let nations =
  [| ("ALGERIA", 0); ("ARGENTINA", 1); ("BRAZIL", 1); ("CANADA", 1);
     ("EGYPT", 4); ("ETHIOPIA", 0); ("FRANCE", 3); ("GERMANY", 3);
     ("INDIA", 2); ("INDONESIA", 2); ("IRAN", 4); ("IRAQ", 4); ("JAPAN", 2);
     ("JORDAN", 4); ("KENYA", 0); ("MOROCCO", 0); ("MOZAMBIQUE", 0);
     ("PERU", 1); ("CHINA", 2); ("ROMANIA", 3); ("SAUDI ARABIA", 4);
     ("VIETNAM", 2); ("RUSSIA", 3); ("UNITED KINGDOM", 3);
     ("UNITED STATES", 1) |]

let segments = [| "AUTOMOBILE"; "BUILDING"; "FURNITURE"; "HOUSEHOLD"; "MACHINERY" |]
let priorities = [| "1-URGENT"; "2-HIGH"; "3-MEDIUM"; "4-NOT SPECIFIED"; "5-LOW" |]
let colors = [| "almond"; "blue"; "green"; "ivory"; "navy"; "red" |]
let type_sizes = [| "ECONOMY"; "PROMO"; "STANDARD" |]
let type_finishes = [| "ANODIZED"; "POLISHED" |]
let type_metals = [| "BRASS"; "STEEL" |]

(* Customers and suppliers live in the nations the queries name, or share
   a region with them: GERMANY, FRANCE, JAPAN, INDIA, UNITED STATES. *)
let home_nations = [| 7; 6; 12; 8; 24 |]
let containers = [| "SM CASE"; "SM BOX"; "MED BAG"; "LG CASE"; "JUMBO PKG" |]
let instructions = [| "DELIVER IN PERSON"; "COLLECT COD"; "NONE"; "TAKE BACK RETURN" |]
let ship_modes = [| "AIR"; "AIR REG"; "MAIL"; "SHIP"; "TRUCK"; "RAIL"; "FOB" |]
let days_per_year = 336

let date d =
  Printf.sprintf "%04d-%02d-%02d" (1992 + (d / days_per_year))
    (d mod days_per_year / 28 + 1) (d mod 28 + 1)

let linked_database ~rng ~rows =
  let module Rng = Cdbs_util.Rng in
  let module V = Cdbs_storage.Value in
  let db = Cdbs_storage.Database.create schema in
  let count name = Option.value ~default:0 (List.assoc_opt name rows) in
  let insert name row =
    (* A small supplier count can pair a part with one supplier twice;
       the duplicate key is skipped. *)
    ignore (Cdbs_storage.Database.insert db name (Array.of_list row))
  in
  let pick a = V.Str (Rng.pick rng a) in
  let money lo hi = V.Float (float_of_int (lo + Rng.int rng (hi - lo)) /. 100.) in
  let letters n = V.Str (String.init n (fun _ -> Char.chr (97 + Rng.int rng 26))) in
  let comment words =
    V.Str (if Rng.int rng 4 = 0 then words else "quickly final deposits")
  in
  Array.iteri
    (fun k r -> insert "region" [ V.Int k; V.Str r; letters 20 ])
    regions;
  Array.iteri
    (fun k (n, r) -> insert "nation" [ V.Int k; V.Str n; V.Int r; letters 20 ])
    nations;
  let suppliers = count "supplier" and parts = count "part" in
  for k = 1 to suppliers do
    insert "supplier"
      [ V.Int k; V.Str (Printf.sprintf "Supplier#%09d" k); letters 12;
        V.Int (Rng.pick rng home_nations); letters 15; money (-99_999) 999_999;
        comment "among the Customer regular Complaints" ]
  done;
  let customers = count "customer" in
  for k = 1 to customers do
    insert "customer"
      [ V.Int k; V.Str (Printf.sprintf "Customer#%09d" k); letters 12;
        V.Int (Rng.pick rng home_nations); letters 15; money (-99_999) 999_999;
        pick segments; letters 30 ]
  done;
  for k = 1 to parts do
    insert "part"
      [ V.Int k;
        V.Str (Rng.pick rng colors ^ " " ^ Rng.pick rng colors);
        V.Str (Printf.sprintf "Manufacturer#%d" (1 + Rng.int rng 5));
        V.Str (Printf.sprintf "Brand#%d%d" (1 + Rng.int rng 5) (1 + Rng.int rng 5));
        V.Str
          (String.concat " "
             [ Rng.pick rng type_sizes; Rng.pick rng type_finishes;
               Rng.pick rng type_metals ]);
        V.Int (1 + Rng.int rng 16); pick containers; money 90_000 200_000;
        letters 10 ]
  done;
  (* The [j]-th of a part's four suppliers, distinct for four or more
     suppliers. *)
  let supplier_of p j = ((p + (j * max 1 (suppliers / 4))) mod max 1 suppliers) + 1 in
  for i = 0 to count "partsupp" - 1 do
    let p = (i / 4) + 1 in
    if p <= parts then
      insert "partsupp"
        [ V.Int p; V.Int (supplier_of p (i mod 4)); V.Int (1 + Rng.int rng 9999);
          money 100 100_000; letters 40 ]
  done;
  let orders = count "orders" in
  let order_day = Array.make (orders + 1) 0 in
  for k = 1 to orders do
    let d = Rng.int rng ((7 * days_per_year) - 151) in
    order_day.(k) <- d;
    insert "orders"
      [ V.Int k; V.Int (1 + Rng.int rng (max 1 customers)); pick [| "F"; "O"; "P" |];
        money 100_000 50_000_000; V.Str (date d); pick priorities;
        V.Str (Printf.sprintf "Clerk#%09d" (1 + Rng.int rng 1000)); V.Int 0;
        comment "pending special packages requests" ]
  done;
  let lines = count "lineitem" in
  let previous = ref 0 and line = ref 0 in
  for i = 0 to lines - 1 do
    if orders > 0 && parts > 0 then begin
      let o = 1 + (i * orders / lines) in
      line := if o = !previous then !line + 1 else 1;
      previous := o;
      let p = 1 + Rng.int rng parts in
      let ship = order_day.(o) + 1 + Rng.int rng 121 in
      let commit = order_day.(o) + 30 + Rng.int rng 61 in
      let receipt = ship + 1 + Rng.int rng 30 in
      let quantity = 1 + Rng.int rng 50 in
      insert "lineitem"
        [ V.Int o; V.Int p; V.Int (supplier_of p (Rng.int rng 4)); V.Int !line;
          V.Float (float_of_int quantity); money 100_000 10_000_000;
          V.Float (float_of_int (Rng.int rng 11) /. 100.);
          V.Float (float_of_int (Rng.int rng 9) /. 100.);
          V.Str (if receipt <= 3 * days_per_year then Rng.pick rng [| "R"; "A" |] else "N");
          V.Str (if ship > 3 * days_per_year then "O" else "F");
          V.Str (date ship); V.Str (date commit); V.Str (date receipt);
          pick instructions; pick ship_modes; letters 20 ]
    end
  done;
  db

(* Footprints of the 19 evaluated queries (Q17, Q20, Q21 omitted) and their
   relative costs, modeling the measured execution-time weights of the
   paper's journal. *)
let query_defs :
    (string * float * (string * string list) list) list =
  [
    ( "Q1", 9.0,
      [ ("lineitem",
         [ "l_returnflag"; "l_linestatus"; "l_quantity"; "l_extendedprice";
           "l_discount"; "l_tax"; "l_shipdate" ]) ] );
    ( "Q2", 2.0,
      [
        ("part", [ "p_partkey"; "p_mfgr"; "p_size"; "p_type" ]);
        ("supplier",
         [ "s_suppkey"; "s_name"; "s_address"; "s_nationkey"; "s_phone";
           "s_acctbal"; "s_comment" ]);
        ("partsupp", [ "ps_partkey"; "ps_suppkey"; "ps_supplycost" ]);
        ("nation", [ "n_nationkey"; "n_name"; "n_regionkey" ]);
        ("region", [ "r_regionkey"; "r_name" ]);
      ] );
    ( "Q3", 6.0,
      [
        ("customer", [ "c_mktsegment"; "c_custkey" ]);
        ("orders", [ "o_orderkey"; "o_custkey"; "o_orderdate"; "o_shippriority" ]);
        ("lineitem", [ "l_orderkey"; "l_extendedprice"; "l_discount"; "l_shipdate" ]);
      ] );
    ( "Q4", 5.0,
      [
        ("orders", [ "o_orderkey"; "o_orderdate"; "o_orderpriority" ]);
        ("lineitem", [ "l_orderkey"; "l_commitdate"; "l_receiptdate" ]);
      ] );
    ( "Q5", 6.0,
      [
        ("customer", [ "c_custkey"; "c_nationkey" ]);
        ("orders", [ "o_orderkey"; "o_custkey"; "o_orderdate" ]);
        ("lineitem", [ "l_orderkey"; "l_suppkey"; "l_extendedprice"; "l_discount" ]);
        ("supplier", [ "s_suppkey"; "s_nationkey" ]);
        ("nation", [ "n_nationkey"; "n_name"; "n_regionkey" ]);
        ("region", [ "r_regionkey"; "r_name" ]);
      ] );
    ( "Q6", 4.0,
      [ ("lineitem", [ "l_shipdate"; "l_quantity"; "l_discount"; "l_extendedprice" ]) ] );
    ( "Q7", 6.0,
      [
        ("supplier", [ "s_suppkey"; "s_nationkey" ]);
        ("lineitem",
         [ "l_suppkey"; "l_orderkey"; "l_shipdate"; "l_extendedprice"; "l_discount" ]);
        ("orders", [ "o_orderkey"; "o_custkey" ]);
        ("customer", [ "c_custkey"; "c_nationkey" ]);
        ("nation", [ "n_nationkey"; "n_name" ]);
      ] );
    ( "Q8", 5.0,
      [
        ("part", [ "p_partkey"; "p_type" ]);
        ("supplier", [ "s_suppkey"; "s_nationkey" ]);
        ("lineitem",
         [ "l_partkey"; "l_suppkey"; "l_orderkey"; "l_extendedprice"; "l_discount" ]);
        ("orders", [ "o_orderkey"; "o_custkey"; "o_orderdate" ]);
        ("customer", [ "c_custkey"; "c_nationkey" ]);
        ("nation", [ "n_nationkey"; "n_regionkey"; "n_name" ]);
        ("region", [ "r_regionkey"; "r_name" ]);
      ] );
    ( "Q9", 12.0,
      [
        ("part", [ "p_partkey"; "p_name" ]);
        ("supplier", [ "s_suppkey"; "s_nationkey" ]);
        ("lineitem",
         [ "l_partkey"; "l_suppkey"; "l_orderkey"; "l_quantity";
           "l_extendedprice"; "l_discount" ]);
        ("partsupp", [ "ps_partkey"; "ps_suppkey"; "ps_supplycost" ]);
        ("orders", [ "o_orderkey"; "o_orderdate" ]);
        ("nation", [ "n_nationkey"; "n_name" ]);
      ] );
    ( "Q10", 6.0,
      [
        ("customer",
         [ "c_custkey"; "c_name"; "c_acctbal"; "c_address"; "c_phone";
           "c_comment"; "c_nationkey" ]);
        ("orders", [ "o_orderkey"; "o_custkey"; "o_orderdate" ]);
        ("lineitem", [ "l_orderkey"; "l_returnflag"; "l_extendedprice"; "l_discount" ]);
        ("nation", [ "n_nationkey"; "n_name" ]);
      ] );
    ( "Q11", 2.0,
      [
        ("partsupp", [ "ps_partkey"; "ps_suppkey"; "ps_availqty"; "ps_supplycost" ]);
        ("supplier", [ "s_suppkey"; "s_nationkey" ]);
        ("nation", [ "n_nationkey"; "n_name" ]);
      ] );
    ( "Q12", 5.0,
      [
        ("orders", [ "o_orderkey"; "o_orderpriority" ]);
        ("lineitem",
         [ "l_orderkey"; "l_shipmode"; "l_commitdate"; "l_receiptdate"; "l_shipdate" ]);
      ] );
    ( "Q13", 7.0,
      [
        ("customer", [ "c_custkey" ]);
        ("orders", [ "o_orderkey"; "o_custkey"; "o_comment" ]);
      ] );
    ( "Q14", 4.0,
      [
        ("lineitem", [ "l_partkey"; "l_shipdate"; "l_extendedprice"; "l_discount" ]);
        ("part", [ "p_partkey"; "p_type" ]);
      ] );
    ( "Q15", 5.0,
      [
        ("lineitem", [ "l_suppkey"; "l_shipdate"; "l_extendedprice"; "l_discount" ]);
        ("supplier", [ "s_suppkey"; "s_name"; "s_address"; "s_phone" ]);
      ] );
    ( "Q16", 3.0,
      [
        ("partsupp", [ "ps_partkey"; "ps_suppkey" ]);
        ("part", [ "p_partkey"; "p_brand"; "p_type"; "p_size" ]);
        ("supplier", [ "s_suppkey"; "s_comment" ]);
      ] );
    ( "Q18", 10.0,
      [
        ("customer", [ "c_custkey"; "c_name" ]);
        ("orders", [ "o_orderkey"; "o_custkey"; "o_orderdate"; "o_totalprice" ]);
        ("lineitem", [ "l_orderkey"; "l_quantity" ]);
      ] );
    ( "Q19", 4.0,
      [
        ("lineitem",
         [ "l_partkey"; "l_quantity"; "l_extendedprice"; "l_discount";
           "l_shipmode"; "l_shipinstruct" ]);
        ("part", [ "p_partkey"; "p_brand"; "p_container"; "p_size" ]);
      ] );
    ( "Q22", 3.0,
      [
        ("customer", [ "c_custkey"; "c_phone"; "c_acctbal" ]);
        ("orders", [ "o_custkey" ]);
      ] );
  ]

let specs ~sf =
  let size_of = Classification.default_sizes ~schema ~rows:(row_counts ~sf) in
  let footprint_mb footprint =
    List.fold_left
      (fun acc (table, cols) ->
        List.fold_left
          (fun acc column ->
            acc +. size_of (Fragment.Column { table; column }))
          acc cols)
      0. footprint
  in
  List.map
    (fun (id, cost, footprint) ->
      Spec.read id footprint ~weight:cost ~request_mb:(footprint_mb footprint))
    query_defs

let workload ~granularity ~sf =
  Spec.to_workload ~schema ~rows:(row_counts ~sf) ~granularity (specs ~sf)

let requests ~rng ~sf ~n = Spec.requests ~rng ~n (specs ~sf)
