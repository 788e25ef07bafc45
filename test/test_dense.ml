(* Dense allocator core: greedy against the exact optimum, pool
   determinism, incremental repair safety, island-parallel determinism. *)

open Cdbs_core
module Rng = Cdbs_util.Rng

(* (a) Greedy against the exact optimum.  On 1-2 homogeneous backends the
   Appendix B MIP, on the coarsened workload, proves its scale optimal,
   and greedy's scale is never below it.  Optimal builds its allocation
   through the view's setters, so that allocation must validate and read
   back the scale the MIP reports, within the 1e-6 its second phase may
   give up for less storage. *)
let prop_greedy_vs_optimum =
  QCheck.Test.make ~count:50 ~name:"greedy is never better than the MIP"
    (QCheck.pair Gen.workload_arbitrary (QCheck.int_range 1 2))
    (fun (w, n) ->
      let backends = Backend.homogeneous n in
      match
        Optimal.allocate ~node_limit:20_000 (Optimal.coarsen w) backends
      with
      | Error e -> QCheck.Test.fail_reportf "MIP: %s" e
      | Ok r ->
          let mip = r.Optimal.allocation in
          let greedy = Allocation.scale (Greedy.allocate w backends) in
          if not r.Optimal.proved_optimal then
            QCheck.Test.fail_report "MIP not proved optimal"
          else if Allocation.validate mip <> Ok () then
            QCheck.Test.fail_report "MIP allocation invalid"
          else if
            abs_float (Allocation.scale mip -. r.Optimal.scale) > 1e-6 +. 1e-9
          then
            QCheck.Test.fail_reportf "MIP reports scale %h, reads back %h"
              r.Optimal.scale (Allocation.scale mip)
          else
            greedy >= r.Optimal.scale -. 1e-9
            || QCheck.Test.fail_reportf "greedy %h below the optimum %h"
                 greedy r.Optimal.scale)

(* (b) Incremental.repair stays checker-clean and within the move budget
   across random deltas, including backend adds and retirements. *)
let prop_repair_clean =
  QCheck.Test.make ~count:200 ~name:"incremental repair is checker-clean"
    (QCheck.pair Gen.scenario_arbitrary QCheck.small_nat)
    (fun ((w, backends), salt) ->
      let rng = Rng.create (1000 + salt) in
      let t = Allocation.state (Greedy.allocate w backends) in
      let deltas = Incremental.random_delta ~rng ~frac:0.3 t in
      let alive = List.length backends in
      let deltas =
        (if Rng.bool rng then
           [ Incremental.Add_backend { name = "Bnew"; capacity = 1.0 } ]
         else [])
        @ (if alive >= 3 && Rng.bool rng then
             [ Incremental.Retire_backend { backend = Rng.int rng alive } ]
           else [])
        @ deltas
      in
      let budget = t.Dense.inst.Dense.n_frags in
      let st, stats = Incremental.repair ~budget t deltas in
      match
        Cdbs_analysis.Check_allocation.check_dense st
        |> Cdbs_analysis.Diagnostic.errors
      with
      | d :: _ as diags ->
          QCheck.Test.fail_reportf "%d diagnostics, first: %a"
            (List.length diags) Cdbs_analysis.Diagnostic.pp d
      | [] -> stats.Incremental.rebalance_fragments <= budget)

(* (b') with k-safety: a k-safe input stays k-safe through the delta. *)
let prop_repair_preserves_ksafety =
  QCheck.Test.make ~count:100 ~name:"incremental repair preserves k-safety"
    (QCheck.pair Gen.scenario_arbitrary QCheck.small_nat)
    (fun ((w, backends), salt) ->
      QCheck.assume (List.length backends >= 2);
      let rng = Rng.create (2000 + salt) in
      let t = Allocation.state (Ksafety.allocate ~k:1 w backends) in
      let deltas = Incremental.random_delta ~rng ~frac:0.2 t in
      let st, _ = Incremental.repair ~k:1 t deltas in
      Cdbs_analysis.Check_allocation.check_dense ~k:1 st
      |> Cdbs_analysis.Diagnostic.errors
      = [])

(* (b'') Retiring a backend of a k-safe placement takes its standby
   replicas with it; the repair must put them back, spread over the zones
   when there is a topology. *)
let prop_retire_backend_keeps_ksafety =
  QCheck.Test.make ~count:200
    ~name:"retiring a backend keeps k-safety and zone spread"
    (QCheck.pair Gen.scenario_arbitrary QCheck.small_nat)
    (fun ((w, backends), salt) ->
      let n = List.length backends in
      let k = 1 + (salt mod 2) and zones = [| 0; 2; 3 |].(salt / 2 mod 3) in
      QCheck.assume (n >= k + 2 && zones <= n);
      let topology =
        if zones = 0 then None else Some (Topology.uniform ~zones n)
      in
      let t = Allocation.state (Ksafety.allocate ?topology ~k w backends) in
      let st, _ =
        Incremental.repair ~k ?topology t
          [ Incremental.Retire_backend { backend = salt mod n } ]
      in
      match
        Cdbs_analysis.Check_allocation.check_dense ~k ?topology st
        |> Cdbs_analysis.Diagnostic.errors
      with
      | [] -> true
      | d :: _ ->
          QCheck.Test.fail_reportf "k=%d zones=%d retired B%d: %a" k zones
            (salt mod n) Cdbs_analysis.Diagnostic.pp d)

(* (c) The island-parallel memetic is bit-deterministic for a fixed
   (seed, islands) no matter how many domains run it. *)
let prop_memetic_par_deterministic =
  QCheck.Test.make ~count:30
    ~name:"parallel memetic deterministic across domains"
    Gen.scenario_arbitrary (fun (w, backends) ->
      let t = Allocation.state (Greedy.allocate w backends) in
      let params =
        {
          Memetic_par.population = 4;
          generations = 6;
          mutations_per_parent = 2;
          islands = 4;
          migration_every = 2;
        }
      in
      let run domains =
        Memetic_par.improve ~params ~domains ~seed:7 (Dense.copy t)
      in
      let r1 = run 1 and r2 = run 2 and r4 = run 4 in
      let shares t =
        List.init t.Dense.inst.Dense.n_classes (fun c ->
            let pairs = ref [] in
            Dense.iter_shares t c (fun b w -> pairs := (b, w) :: !pairs);
            !pairs)
      in
      let same a b =
        shares a = shares b
        && Array.for_all2 Bytes.equal a.Dense.held b.Dense.held
        && Dense.cost a = Dense.cost b
      in
      let not_worse =
        not (Memetic.compare_cost t r1 < 0)
      in
      same r1 r2 && same r1 r4 && not_worse)

(* Every state the memetic reaches meets its precondition: from the greedy
   placement, a chain of 20 mutations with a local-search pass after every
   fifth leaves no error and no dead storage (ALC011), and the cached cost
   stays within Eps.assign of the one summed afresh. *)
let prop_memetic_states_clean =
  QCheck.Test.make ~count:300
    ~name:"memetic states stay valid without dead storage"
    (QCheck.pair Gen.scenario_arbitrary QCheck.small_nat)
    (fun ((w, backends), salt) ->
      let rng = Rng.create (3000 + salt) in
      let check step t =
        let bad =
          List.filter
            (fun (d : Cdbs_analysis.Diagnostic.t) ->
              d.severity = Error || d.code = "ALC011")
            (Cdbs_analysis.Check_allocation.check_dense t)
        in
        let fresh = Dense.copy t in
        Dense.refresh fresh;
        let s, z = Dense.cost t and s', z' = Dense.cost fresh in
        match bad with
        | d :: _ ->
            QCheck.Test.fail_reportf "step %d: %a" step
              Cdbs_analysis.Diagnostic.pp d
        | [] ->
            abs_float (s -. s') <= Eps.assign
            && abs_float (z -. z') <= Eps.assign
            || QCheck.Test.fail_reportf
                 "step %d: cost (%h, %h), afresh (%h, %h)" step s z s' z'
      in
      let inst =
        (Allocation.state (Allocation.create w backends)).Dense.inst
      in
      let t = ref (Dense.greedy inst) in
      check 0 !t
      && List.for_all
           (fun step ->
             t := Dense.mutate rng !t;
             check step !t
             && (step mod 5 <> 0
                || begin
                     t := fst (Memetic.search !t);
                     check step !t
                   end))
           (List.init 20 (fun i -> i + 1)))

let test_repair_budget_zero () =
  let rng = Rng.create 3 in
  let inst =
    Dense.synthetic ~rng ~fragments:200 ~reads:60 ~updates:15 ~backends:5 ()
  in
  let t = Dense.greedy inst in
  let _, stats =
    Incremental.repair ~budget:0 t
      [ Incremental.Add_backend { name = "B6"; capacity = 1.0 } ]
  in
  Alcotest.(check int)
    "no rebalance copies" 0 stats.Incremental.rebalance_fragments

let test_repair_moves_o_delta () =
  let rng = Rng.create 11 in
  let inst =
    Dense.synthetic ~rng ~fragments:5000 ~reads:1500 ~updates:300 ~backends:20
      ()
  in
  let t = Dense.greedy inst in
  let deltas = Incremental.random_delta ~rng ~frac:0.01 t in
  let st, stats = Incremental.repair t deltas in
  let errs =
    Cdbs_analysis.Check_allocation.check_dense st
    |> Cdbs_analysis.Diagnostic.errors
  in
  Alcotest.(check int) "clean" 0 (List.length errs);
  let moved_frac =
    float_of_int stats.Incremental.moved_fragments
    /. float_of_int inst.Dense.n_frags
  in
  Alcotest.(check bool)
    (Printf.sprintf "moved %.4f <= 0.05" moved_frac)
    true (moved_frac <= 0.05)

let test_check_dense_flags_corruption () =
  let rng = Rng.create 5 in
  let inst =
    Dense.synthetic ~rng ~fragments:300 ~reads:80 ~updates:20 ~backends:6 ()
  in
  let t = Dense.greedy inst in
  Alcotest.(check int) "clean before" 0
    (List.length
       (Cdbs_analysis.Diagnostic.errors
          (Cdbs_analysis.Check_allocation.check_dense t)));
  (* Corrupt: assign a read class somewhere without its data. *)
  let c = inst.Dense.read_idx.(0) in
  let b =
    let rec find b = if Dense.holds t b c then find (b + 1) else b in
    try find 0 with _ -> 0
  in
  if b < Dense.num_backends t then begin
    Dense.set_share t b c (Dense.share t b c +. 0.1);
    let errs =
      Cdbs_analysis.Diagnostic.errors
        (Cdbs_analysis.Check_allocation.check_dense t)
    in
    Alcotest.(check bool) "flags ALC002/ALC003" true
      (List.exists
         (fun d ->
           d.Cdbs_analysis.Diagnostic.code = "ALC002"
           || d.Cdbs_analysis.Diagnostic.code = "ALC003")
         errs)
  end

let clean_errs st =
  List.length
    (Cdbs_analysis.Diagnostic.errors
       (Cdbs_analysis.Check_allocation.check_dense st))

(* Add_update exercises the fragment->update CSR rebuild (the only delta
   that forces it): the new class must land in the CSR and be ROWA-pinned. *)
let test_repair_add_update () =
  let rng = Rng.create 21 in
  let inst =
    Dense.synthetic ~rng ~fragments:400 ~reads:100 ~updates:25 ~backends:8 ()
  in
  let t = Dense.greedy inst in
  let st, _ =
    Incremental.repair t
      [
        Incremental.Add_update
          { id = "u+new"; weight = 0.01; frags = [| 0; 1; 2; 3 |] };
      ]
  in
  Alcotest.(check int) "clean" 0 (clean_errs st);
  let i2 = st.Dense.inst in
  let c = i2.Dense.n_classes - 1 in
  Alcotest.(check string) "appended id" "u+new" i2.Dense.class_id.(c);
  Alcotest.(check bool) "is update" true (Dense.is_update i2 c);
  Alcotest.(check bool) "pinned somewhere" true (st.Dense.upd_pins.(c) > 0);
  let listed = ref false in
  for k = i2.Dense.frag_upd_off.(0) to i2.Dense.frag_upd_off.(1) - 1 do
    if i2.Dense.frag_upd.(k) = c then listed := true
  done;
  Alcotest.(check bool) "fragment->update CSR rebuilt" true !listed

(* Two repairs over copies sharing one base instance: the first claims the
   in-place slack, the second must fall back to copying — neither sibling
   (nor the untouched original) may observe the other's appended class. *)
let test_repair_sibling_extensions () =
  let rng = Rng.create 23 in
  let inst =
    Dense.synthetic ~rng ~fragments:300 ~reads:80 ~updates:20 ~backends:6 ()
  in
  let t = Dense.greedy inst in
  let a = Dense.copy t and b = Dense.copy t in
  let sa, _ =
    Incremental.repair a
      [ Incremental.Add_read { id = "qa"; weight = 0.01; frags = [| 1; 2 |] } ]
  in
  let sb, _ =
    Incremental.repair b
      [
        Incremental.Add_read { id = "qb"; weight = 0.01; frags = [| 5; 6; 7 |] };
      ]
  in
  let last st =
    st.Dense.inst.Dense.class_id.(st.Dense.inst.Dense.n_classes - 1)
  in
  Alcotest.(check string) "first sibling appends its class" "qa" (last sa);
  Alcotest.(check string) "second sibling appends its class" "qb" (last sb);
  Alcotest.(check int) "first sibling clean" 0 (clean_errs sa);
  Alcotest.(check int) "second sibling clean" 0 (clean_errs sb);
  Alcotest.(check int) "original untouched and clean" 0 (clean_errs t);
  Alcotest.(check int) "original class count unchanged"
    inst.Dense.n_classes t.Dense.inst.Dense.n_classes

(* Chained repairs keep appending into the same physical arrays (each link
   consumes the previous state); the end state must stay checker-clean. *)
let test_repair_chained () =
  let rng = Rng.create 29 in
  let inst =
    Dense.synthetic ~materialize:true ~rng ~fragments:300 ~reads:80
      ~updates:20 ~backends:6 ()
  in
  let st = ref (Dense.greedy inst) in
  for i = 1 to 5 do
    let d = Incremental.random_delta ~rng ~frac:0.05 !st in
    let d =
      Incremental.Add_read
        {
          id = Printf.sprintf "qc%d" i;
          weight = 0.005;
          frags = [| i; i + 1 |];
        }
      :: d
    in
    let st', _ = Incremental.repair !st d in
    st := st'
  done;
  Alcotest.(check int) "clean after 5 chained repairs" 0 (clean_errs !st);
  Alcotest.(check bool) "classes accumulated" true
    (!st.Dense.inst.Dense.n_classes >= inst.Dense.n_classes + 5);
  let inst = !st.Dense.inst in
  let ids = Array.to_list (Array.sub inst.Dense.class_id 0 inst.Dense.n_classes) in
  Alcotest.(check int) "class ids stay unique" (List.length ids)
    (List.length (List.sort_uniq String.compare ids))

(* A delta that appends more classes than the state's slack widens its
   class-indexed arrays: the old read classes keep their shares, the new
   ones are placed, and a copy taken before the repair does not change. *)
let test_repair_widens_classes () =
  let rng = Rng.create 37 in
  let inst =
    Dense.synthetic ~rng ~fragments:200 ~reads:10 ~updates:2 ~backends:4 ()
  in
  let t = Dense.greedy inst in
  let base = Dense.copy t in
  let shares st c =
    let pairs = ref [] in
    Dense.iter_shares st c (fun b w -> pairs := (b, w) :: !pairs);
    !pairs
  in
  let reads st = Array.to_list (Array.map (shares st) inst.Dense.read_idx) in
  let before = reads t in
  let slots = Dense.class_slots t in
  let added =
    List.init (slots + 5) (fun i ->
        Incremental.Add_read
          {
            id = Printf.sprintf "qw%d" i;
            weight = 0.001;
            frags = [| (7 * i) mod 200; ((7 * i) + 1) mod 200 |];
          })
  in
  let st, _ = Incremental.repair t added in
  Alcotest.(check bool) "widened" true (Dense.class_slots st > slots);
  Alcotest.(check int) "clean" 0 (clean_errs st);
  Alcotest.(check bool) "old read classes keep their shares" true
    (reads st = before);
  Alcotest.(check bool) "every added class is placed" true
    (List.for_all
       (fun c -> shares st c <> [])
       (List.init (slots + 5) (fun i -> inst.Dense.n_classes + i)));
  Alcotest.(check bool) "the earlier copy is unchanged" true
    (reads base = before)

let test_pool_map_matches_sequential () =
  let arr = Array.init 37 (fun i -> i) in
  let f x = (x * x) + 1 in
  let seq = Array.map f arr in
  List.iter
    (fun d ->
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d" d)
        seq
        (Cdbs_util.Pool.map ~domains:d f arr))
    [ 1; 2; 4; 8 ]

let test_pool_propagates_exceptions () =
  match
    Cdbs_util.Pool.map ~domains:2
      (fun x -> if x = 3 then failwith "boom" else x)
      [| 1; 2; 3; 4 |]
  with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure m -> Alcotest.(check string) "message" "boom" m

(* The opt-in balance pass: a Reweight alone rescales in place and moves
   nothing; with ~balance:true the same delta installs extra replicas of
   the now-hot classes on underloaded backends, within budget, and the
   modeled cost can only improve. *)
let test_repair_balance_pass () =
  (* The control loop's scenario: a day-mix k-safe allocation hit by a
     night-heavy reweight of the quiz class.  The bare Reweight rescales
     in place and leaves the quiz holders overloaded; ~balance:true must
     install the hot class's fragments on more backends (within budget),
     equalize relative loads, and improve the model. *)
  let module Wtrace = Cdbs_workloads.Trace in
  let w = Wtrace.workload_of_mix ~mix:(Wtrace.class_mix ~hour:12.) in
  let alloc =
    Ksafety.allocate ~k:1 w (Backend.homogeneous 4)
  in
  let base = Allocation.state alloc in
  let b_idx =
    match
      List.mapi (fun i c -> (i, c.Query_class.id)) w.Workload.reads
      |> List.find_opt (fun (_, id) -> String.equal id "B")
    with
    | Some (i, _) -> i
    | None -> Alcotest.fail "class B missing"
  in
  let deltas = [ Incremental.Reweight { cls = b_idx; weight = 0.6 } ] in
  let plain, plain_stats = Incremental.repair ~k:1 (Dense.copy base) deltas in
  Alcotest.(check int) "bare reweight moves no data" 0
    plain_stats.Incremental.moved_fragments;
  let budget = 64 in
  let balanced, stats =
    Incremental.repair ~k:1 ~budget ~balance:true (Dense.copy base) deltas
  in
  if stats.Incremental.rebalance_fragments > budget then
    Alcotest.failf "balance overspent: %d > %d"
      stats.Incremental.rebalance_fragments budget;
  if stats.Incremental.moved_fragments = 0 then
    Alcotest.fail "balance pass installed nothing under heavy skew";
  let spread st =
    let rel =
      Array.mapi (fun b l -> l /. st.Dense.inst.Dense.loads.(b)) st.Dense.load
    in
    Array.fold_left max neg_infinity rel /. Array.fold_left min infinity rel
  in
  if spread plain < 1.5 then
    Alcotest.failf "reweight alone should skew the loads: spread %.3f"
      (spread plain);
  if spread balanced > 1.1 then
    Alcotest.failf "balance left loads skewed: spread %.3f" (spread balanced);
  if Dense.scale balanced >= Dense.scale plain then
    Alcotest.failf "balance did not improve the model: %.4f >= %.4f"
      (Dense.scale balanced) (Dense.scale plain);
  match
    Cdbs_analysis.Check_allocation.check_dense ~k:1 balanced
    |> Cdbs_analysis.Diagnostic.errors
  with
  | [] -> ()
  | d :: _ ->
      Alcotest.failf "balanced repair not clean: %a"
        Cdbs_analysis.Diagnostic.pp d

let test_repair_copy_isolation () =
  (* Regression: repair CONSUMES its input, and Dense.copy is the
     documented escape hatch — but copies share the immutable instance,
     and the in-place instance extension used to write reweighted
     class weights into that shared array.  A repair on one copy then
     corrupted the pre-delta allocation and every sibling copy: a second
     identical repair saw w0 = w1 and silently skipped the rescale. *)
  let module Wtrace = Cdbs_workloads.Trace in
  let w = Wtrace.workload_of_mix ~mix:(Wtrace.class_mix ~hour:12.) in
  let base =
    Allocation.state (Ksafety.allocate ~k:1 w (Backend.homogeneous 4))
  in
  let w0 = base.Dense.inst.Dense.class_weight.(0) in
  let deltas = [ Incremental.Reweight { cls = 0; weight = w0 *. 4. } ] in
  let total st c =
    let s = ref 0. in
    Dense.iter_shares st c (fun _ w -> s := !s +. w);
    !s
  in
  let first, _ = Incremental.repair ~k:1 (Dense.copy base) deltas in
  Alcotest.(check (float 1e-9))
    "base keeps its pre-delta weight" w0
    base.Dense.inst.Dense.class_weight.(0);
  Alcotest.(check (float 1e-9)) "base assignments untouched" w0 (total base 0);
  let second, _ = Incremental.repair ~k:1 (Dense.copy base) deltas in
  Alcotest.(check (float 1e-9))
    "first repair scaled the class" (w0 *. 4.) (total first 0);
  Alcotest.(check (float 1e-9))
    "second identical repair scales too, not a no-op" (w0 *. 4.)
    (total second 0);
  (* A copy shares its classes' share arrays with the original until one
     side writes them: mutations and transfers on copies must leave the
     original's shares, loads and bitsets bit-equal. *)
  let bits = Int64.bits_of_float in
  let snapshot st =
    ( List.init st.Dense.inst.Dense.n_classes (fun c ->
          let pairs = ref [] in
          Dense.iter_shares st c (fun b w -> pairs := (b, bits w) :: !pairs);
          !pairs),
      Array.map bits st.Dense.load,
      Array.map bits st.Dense.stored,
      Array.map Bytes.to_string st.Dense.held )
  in
  let before = snapshot base in
  let rng = Rng.create 17 in
  let child = ref base in
  for _ = 1 to 20 do
    child := Dense.mutate rng !child
  done;
  let moved = Dense.copy base in
  let n = Dense.num_backends base in
  Array.iter
    (fun c ->
      let first = ref None in
      Dense.iter_shares moved c (fun b w ->
          if !first = None && w > 0. then first := Some (b, w));
      match !first with
      | Some (b1, w) -> Dense.transfer moved c ~b1 ~b2:((b1 + 1) mod n) ~amount:w
      | None -> ())
    base.Dense.inst.Dense.read_idx;
  Alcotest.(check bool) "the copies changed" true
    (snapshot !child <> before && snapshot moved <> before);
  Alcotest.(check bool)
    "mutations and transfers on copies leave the original bit-equal" true
    (snapshot base = before)

(* A state's own words (what Obj.reachable_words counts beyond its
   instance) grow with its class slots, non-zero shares and bitsets, not
   with backends x classes: on 64 backends the bound is several times
   smaller than one backends x class-slots matrix. *)
let test_state_memory_shape () =
  let rng = Rng.create 31 in
  let inst =
    Dense.synthetic ~rng ~fragments:2000 ~reads:800 ~updates:200 ~backends:64
      ()
  in
  let t = Dense.greedy inst in
  let n = Dense.num_backends t and slots = Dense.class_slots t in
  let nnz = ref 0 in
  for c = 0 to inst.Dense.n_classes - 1 do
    Dense.iter_shares t c (fun _ _ -> incr nnz)
  done;
  let bitset_words = (n + 1) * ((Bytes.length t.Dense.held.(0) / 8) + 2) in
  let bound = (8 * (slots + !nnz)) + (2 * bitset_words) + (16 * n) in
  List.iter
    (fun (label, st) ->
      let words =
        Obj.reachable_words (Obj.repr st) - Obj.reachable_words (Obj.repr inst)
      in
      if words > bound then
        Alcotest.failf
          "%s holds %d words, over %d (%d class slots, %d shares, %d bitset \
           words, %d backends)"
          label words bound slots !nnz bitset_words n)
    [ ("greedy state", t); ("its copy", Dense.copy t) ]

let test_synthetic_greedy_clean () =
  let rng = Rng.create 42 in
  let inst =
    Dense.synthetic ~materialize:true ~rng ~fragments:400 ~reads:120
      ~updates:30 ~backends:8 ()
  in
  let dense = Dense.greedy inst in
  (match
     Cdbs_analysis.Check_allocation.check_dense dense
     |> Cdbs_analysis.Diagnostic.errors
   with
  | [] -> ()
  | d :: _ -> Alcotest.failf "invalid: %a" Cdbs_analysis.Diagnostic.pp d);
  Alcotest.(check bool) "scale >= 1" true (Dense.scale dense >= 1.)

(* Dense.transfer moves a read class's data with it: the source keeps what
   the classes still assigned there reference and drops the rest. *)
let test_transfer_drops_unused () =
  let fr name = Fragment.table name ~size:1. in
  let w =
    Workload.make
      ~reads:
        [
          Query_class.read "q1" [ fr "a" ] ~weight:0.6;
          Query_class.read "q2" [ fr "b" ] ~weight:0.4;
        ]
      ~updates:[]
  in
  let alloc = Allocation.create w (Backend.homogeneous 2) in
  Allocation.add_fragments alloc 0 (Workload.fragments w);
  List.iter
    (fun c -> Allocation.set_assign alloc 0 c c.Query_class.weight)
    w.Workload.reads;
  let held t b =
    let names = ref [] in
    let frags = Option.get t.Dense.inst.Dense.frags in
    Dense.Bits.iter
      (fun f -> names := Fragment.name frags.(f) :: !names)
      t.Dense.held.(b);
    List.rev !names
  in
  let t = Allocation.state alloc in
  let q2 = 1 in
  let part = Dense.copy t in
  Dense.transfer part q2 ~b1:0 ~b2:1 ~amount:0.1;
  Alcotest.(check (list string)) "part of q2 moved: B1 keeps b" [ "a"; "b" ]
    (held part 0);
  Dense.transfer t q2 ~b1:0 ~b2:1 ~amount:infinity;
  Alcotest.(check (list string)) "all of q2 moved: B1 drops b" [ "a" ]
    (held t 0);
  Alcotest.(check (list string)) "B2 holds b" [ "b" ] (held t 1);
  Alcotest.(check (float 0.)) "q2 served on B2" 0.4 (Dense.share t 1 q2);
  Alcotest.(check int) "clean" 0 (clean_errs t)

(* An update class that a transfer leaves on no backend stays on its last
   carrier, the transfer's source (Eq. 11). *)
let test_transfer_keeps_update_home () =
  let fr name = Fragment.table name ~size:1. in
  let w =
    Workload.make
      ~reads:[ Query_class.read "q" [ fr "a" ] ~weight:0.9 ]
      ~updates:[ Query_class.update "u" [ fr "x" ] ~weight:0.1 ]
  in
  let alloc = Allocation.create w (Backend.homogeneous 3) in
  Allocation.add_fragments alloc 0 (Workload.fragments w);
  Array.iter
    (fun c -> Allocation.set_assign alloc 0 c c.Query_class.weight)
    (Allocation.classes alloc);
  let t = Allocation.state alloc in
  let q = 0 and u = 1 in
  Dense.transfer t q ~b1:0 ~b2:2 ~amount:infinity;
  Alcotest.(check (list (float 0.))) "u still on B1 alone" [ 0.1; 0.; 0. ]
    (List.init 3 (fun b -> Dense.share t b u));
  Alcotest.(check bool) "B1 keeps x" true (Dense.holds t 0 u);
  Alcotest.(check bool) "B1 dropped a" false (Dense.holds t 0 q);
  Alcotest.(check int) "clean" 0 (clean_errs t)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_greedy_vs_optimum;
    QCheck_alcotest.to_alcotest prop_repair_clean;
    QCheck_alcotest.to_alcotest prop_repair_preserves_ksafety;
    QCheck_alcotest.to_alcotest prop_retire_backend_keeps_ksafety;
    QCheck_alcotest.to_alcotest prop_memetic_par_deterministic;
    QCheck_alcotest.to_alcotest prop_memetic_states_clean;
    Alcotest.test_case "transfer drops unused data" `Quick
      test_transfer_drops_unused;
    Alcotest.test_case "transfer keeps update home" `Quick
      test_transfer_keeps_update_home;
    Alcotest.test_case "repair budget=0 adds no rebalance copies" `Quick
      test_repair_budget_zero;
    Alcotest.test_case "repair on 1% delta moves few fragments" `Quick
      test_repair_moves_o_delta;
    Alcotest.test_case "check_dense flags corruption" `Quick
      test_check_dense_flags_corruption;
    Alcotest.test_case "repair Add_update rebuilds the update CSR" `Quick
      test_repair_add_update;
    Alcotest.test_case "sibling extensions of one base stay isolated" `Quick
      test_repair_sibling_extensions;
    Alcotest.test_case "chained repairs stay clean" `Quick test_repair_chained;
    Alcotest.test_case "repair past the class slack widens the state" `Quick
      test_repair_widens_classes;
    Alcotest.test_case "balance pass installs replicas within budget" `Quick
      test_repair_balance_pass;
    Alcotest.test_case "repair on a copy leaves the original intact" `Quick
      test_repair_copy_isolation;
    Alcotest.test_case "state memory grows with shares, not backends" `Quick
      test_state_memory_shape;
    Alcotest.test_case "pool map = sequential map" `Quick
      test_pool_map_matches_sequential;
    Alcotest.test_case "pool propagates exceptions" `Quick
      test_pool_propagates_exceptions;
    Alcotest.test_case "synthetic greedy is valid" `Quick
      test_synthetic_greedy_clean;
  ]
