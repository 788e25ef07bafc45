let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stdev xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
      let m = mean xs in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs
        /. float_of_int (List.length xs)
      in
      sqrt var

let minimum = function
  | [] -> 0.
  | x :: xs -> List.fold_left min x xs

let maximum = function
  | [] -> 0.
  | x :: xs -> List.fold_left max x xs

let swap a i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let median3 x y z =
  if Float.compare x y <= 0 then
    if Float.compare y z <= 0 then y
    else if Float.compare x z <= 0 then z
    else x
  else if Float.compare x z <= 0 then x
  else if Float.compare y z <= 0 then z
  else y

(* Quickselect under [Float.compare]: leaves in [a.(k)] a value of rank [k]
   and returns it.  The three-way partition keeps runs of equal values
   (common: identical service times) linear. *)
let select a k =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let pivot = median3 a.(!lo) a.(!lo + ((!hi - !lo) / 2)) a.(!hi) in
    (* [lo, lt) < pivot, [lt, i) = pivot, (gt, hi] > pivot *)
    let lt = ref !lo and i = ref !lo and gt = ref !hi in
    while !i <= !gt do
      let c = Float.compare a.(!i) pivot in
      if c < 0 then begin
        swap a !lt !i;
        incr lt;
        incr i
      end
      else if c > 0 then begin
        swap a !i !gt;
        decr gt
      end
      else incr i
    done;
    if k < !lt then hi := !lt - 1
    else if k > !gt then lo := !gt + 1
    else begin
      lo := k;
      hi := k
    end
  done;
  a.(k)

let nearest_rank xs =
  let a = Array.copy xs in
  let n = Array.length a in
  (* [Float.compare] cannot tell -0. from 0., nor one NaN from another; a
     stable sort puts each such class at consecutive ranks in input order.
     Keep those members in input order to return the exact bits the sort
     would have placed at a rank. *)
  let zeros = ref 0 and nans = ref 0 in
  for i = 0 to n - 1 do
    let x = xs.(i) in
    if x = 0. then incr zeros else if Float.is_nan x then incr nans
  done;
  let zeros = Array.make !zeros 0. and nans = Array.make !nans nan in
  if Array.length zeros + Array.length nans > 0 then begin
    let z = ref 0 and m = ref 0 in
    for i = 0 to n - 1 do
      let x = xs.(i) in
      if x = 0. then begin
        zeros.(!z) <- x;
        incr z
      end
      else if Float.is_nan x then begin
        nans.(!m) <- x;
        incr m
      end
    done
  end;
  fun p ->
    if n = 0 then invalid_arg "Stats.nearest_rank: empty sample";
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
    let k = max 0 (min (n - 1) rank) in
    let v = select a k in
    let members =
      if v = 0. then zeros else if Float.is_nan v then nans else [||]
    in
    if Array.length members = 0 then v
    else begin
      let below = ref 0 in
      for i = 0 to n - 1 do
        if Float.compare a.(i) v < 0 then incr below
      done;
      members.(k - !below)
    end

let percentile p = function
  | [] -> invalid_arg "Stats.percentile: empty list"
  | xs -> nearest_rank (Array.of_list xs) p

let relative_deviation xs =
  let m = mean xs in
  if m = 0. then 0.
  else
    let mad =
      List.fold_left (fun acc x -> acc +. abs_float (x -. m)) 0. xs
      /. float_of_int (List.length xs)
    in
    mad /. m

let histogram ~bins ~lo ~hi xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  List.iter
    (fun x ->
      let idx =
        if width <= 0. then 0
        else int_of_float (floor ((x -. lo) /. width))
      in
      let idx = max 0 (min (bins - 1) idx) in
      counts.(idx) <- counts.(idx) + 1)
    xs;
  counts
