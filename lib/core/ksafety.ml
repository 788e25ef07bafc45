let class_holders ?(failed = []) alloc c =
  let acc = ref [] in
  for b = Allocation.num_backends alloc - 1 downto 0 do
    if (not (List.mem b failed)) && Allocation.holds alloc b c then
      acc := b :: !acc
  done;
  !acc

let classes alloc = Workload.all_classes (Allocation.workload alloc)

let survivors ~failed alloc =
  List.filter
    (fun b -> not (List.mem b failed))
    (List.init (Allocation.num_backends alloc) Fun.id)

let effective_k ?(failed = []) alloc =
  List.fold_left
    (fun acc c -> min acc (List.length (class_holders ~failed alloc c) - 1))
    (List.length (survivors ~failed alloc) - 1)
    (classes alloc)

let is_k_safe ~k alloc =
  List.for_all
    (fun c -> List.length (class_holders alloc c) >= k + 1)
    (classes alloc)

let survives alloc ~failed =
  List.for_all (fun c -> class_holders ~failed alloc c <> []) (classes alloc)

let class_zone_spread ~topology alloc c =
  Topology.zones_spanned topology (class_holders alloc c)

let spread_ok ~topology ~k alloc =
  (* The spread a placement can achieve: a zone with no backend cannot
     host a replica. *)
  let required =
    min (k + 1) (Topology.zones_spanned topology (survivors ~failed:[] alloc))
  in
  List.for_all
    (fun c -> class_zone_spread ~topology alloc c >= required)
    (classes alloc)

(* ------------------------------------------------------------------ *)
(* The placement pass (Algorithm 4) on Dense                           *)
(* ------------------------------------------------------------------ *)

module Bits = Dense.Bits

let replicate ?topology ?(on_write = ignore) ?(only = fun _ -> true) ~k
    (t : Dense.t) =
  let inst = t.Dense.inst in
  let n = Dense.num_backends t and nc = inst.Dense.n_classes in
  let load = t.Dense.load in
  (* Loads as [Allocation.assigned_load] sums them: each backend's shares
     in ascending class order. *)
  Array.fill load 0 n 0.;
  let add b w = load.(b) <- load.(b) +. w in
  for c = 0 to nc - 1 do
    Dense.iter_shares t c add
  done;
  let summed_load b =
    let s = ref 0. in
    for c = 0 to nc - 1 do
      s := !s +. Dense.share t b c
    done;
    !s
  in
  (* Without a topology every backend is in zone 0, so the zone key ties. *)
  let zone, zones =
    match topology with
    | None -> ((fun _ -> 0), 1)
    | Some topo -> (Topology.zone_of topo, Topology.zones topo)
  in
  let covered = Array.make zones false and holder = Array.make n false in
  let spanned () =
    Array.fold_left (fun acc z -> if z then acc + 1 else acc) 0 covered
  in
  (* Marks [c]'s alive holders and the zones they cover; returns how many
     there are. *)
  let survey c =
    Array.fill covered 0 zones false;
    let count = ref 0 in
    for b = 0 to n - 1 do
      holder.(b) <- t.Dense.b_alive.(b) && Dense.holds t b c;
      if holder.(b) then begin
        incr count;
        covered.(zone b) <- true
      end
    done;
    !count
  in
  let closure = Dense.class_closure ~alive:t.Dense.c_alive inst in
  let buf = Cdbs_util.Vec.create () in
  (* C ∪ updates(C) ascending, the order [Fragment.set_size] sums in. *)
  let closure_of c =
    Cdbs_util.Vec.clear buf;
    ignore (closure c (Cdbs_util.Vec.push buf));
    let fs = Cdbs_util.Vec.to_array buf in
    Array.sort Int.compare fs;
    fs
  in
  let missing fs b =
    let h = t.Dense.held.(b) and m = ref 0. in
    for i = 0 to Array.length fs - 1 do
      if not (Bits.get h fs.(i)) then
        m := !m +. inst.Dense.frag_size.(fs.(i))
    done;
    !m
  in
  (* The alive backend not holding the class whose zone holds no replica
     yet, then missing the least closure data [fs], then least loaded
     relative to its capacity; the lowest index on a tie.  With [spread]
     only backends in uncovered zones qualify.  Reads the last
     [survey]. *)
  let best ~spread fs =
    let best = ref (-1) and bz = ref 2 in
    let bm = ref infinity and bu = ref infinity in
    for b = 0 to n - 1 do
      if
        t.Dense.b_alive.(b)
        && (not holder.(b))
        && not (spread && covered.(zone b))
      then begin
        let z = if covered.(zone b) then 1 else 0 in
        let m = missing fs b and u = load.(b) /. inst.Dense.loads.(b) in
        let cm = Float.compare m !bm in
        if
          z < !bz
          || (z = !bz && (cm < 0 || (cm = 0 && Float.compare u !bu < 0)))
        then begin
          best := b;
          bz := z;
          bm := m;
          bu := u
        end
      end
    done;
    !best
  in
  let written = Array.make n false in
  let place fs b =
    if not written.(b) then begin
      written.(b) <- true;
      on_write b
    end;
    if Dense.install_fragments t b fs > 0. then load.(b) <- summed_load b
  in
  (* Heaviest first: their replicas bring the most data and constrain
     placement the most (the base greedy order's rationale). *)
  let order =
    List.init nc Fun.id
    |> List.filter (fun c -> t.Dense.c_alive.(c) && only c)
    |> List.stable_sort (fun a b ->
           compare inst.Dense.class_weight.(b) inst.Dense.class_weight.(a))
    |> List.map (fun c -> (c, lazy (closure_of c)))
  in
  (* Each class in turn gains replicas while [short c] holds and some
     backend qualifies. *)
  let pass ~spread short =
    List.iter
      (fun (c, fs) ->
        let rec fill () =
          if short c then
            match best ~spread (Lazy.force fs) with
            | -1 -> ()
            | b ->
                place (Lazy.force fs) b;
                fill ()
        in
        fill ())
      order
  in
  (* Count: k+1 alive replicas of each class, or as many as there are
     alive backends. *)
  pass ~spread:false (fun c -> survey c < k + 1);
  (* Spread: k+1 replicas can still share one zone, so add replicas in
     uncovered zones until each class spans [min (k+1)] zones with an
     alive backend.  Each placement covers a new zone, so this ends. *)
  if Option.is_some topology then begin
    Array.fill covered 0 zones false;
    for b = 0 to n - 1 do
      if t.Dense.b_alive.(b) then covered.(zone b) <- true
    done;
    let required = min (k + 1) (spanned ()) in
    pass ~spread:true (fun c ->
        ignore (survey c);
        spanned () < required)
  end

let allocate ?topology ~k workload backend_list =
  if k < 0 then invalid_arg "Ksafety.allocate: negative k";
  if k + 1 > List.length backend_list then
    invalid_arg "Ksafety.allocate: k+1 exceeds the number of backends";
  (match topology with
  | Some t when Topology.num_backends t <> List.length backend_list ->
      invalid_arg "Ksafety.allocate: topology backend count <> backends"
  | _ -> ());
  Greedy.via_dense ~context:"Ksafety.allocate"
    (fun inst ->
      let t = Dense.greedy inst in
      replicate ?topology ~k t;
      t)
    workload backend_list

let repair ?topology ~k ~failed alloc =
  if k < 0 then invalid_arg "Ksafety.repair: negative k";
  let n = Allocation.num_backends alloc in
  (match topology with
  | Some t when Topology.num_backends t <> n ->
      invalid_arg "Ksafety.repair: topology backend count <> backends"
  | _ -> ());
  let failed = List.sort_uniq Int.compare failed in
  let survivors = n - List.length (List.filter (fun b -> b < n) failed) in
  if k + 1 > survivors then
    invalid_arg "Ksafety.repair: k+1 exceeds the surviving backends";
  let t = Allocation.state alloc in
  let dead = List.filter (fun b -> b >= 0 && b < n) failed in
  List.iter (fun b -> t.Dense.b_alive.(b) <- false) dead;
  let before = Array.make n None in
  replicate ?topology ~k
    ~on_write:(fun b -> before.(b) <- Some (Bits.copy t.Dense.held.(b)))
    t;
  List.iter (fun b -> t.Dense.b_alive.(b) <- true) dead;
  (* The backends the pass reached gained fragments and update pins,
     nothing else changed. *)
  let frags = Option.get t.Dense.inst.Dense.frags in
  Array.mapi
    (fun b snapshot ->
      match snapshot with
      | None -> Fragment.Set.empty
      | Some h ->
          let gained = ref Fragment.Set.empty in
          Bits.iter
            (fun f ->
              if not (Bits.get h f) then
                gained := Fragment.Set.add frags.(f) !gained)
            t.Dense.held.(b);
          !gained)
    before
