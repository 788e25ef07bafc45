let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

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

(* Runs of this many positions are sorted by insertion before the first
   merge pass. *)
let stable_run = 16

let stable_order keys =
  let n = Float.Array.length keys in
  let order = Array.init n Fun.id in
  (* Every comparison below is [Float.compare x y <= 0] written out as
     [x <= y || x <> x] (NaN first, -0. equal to 0.) on keys read in
     place, so no float is boxed and no closure is called. *)
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + stable_run) in
    for i = !lo + 1 to hi - 1 do
      (* [order.(i) = i] still: only positions before [i] moved so far. *)
      let x = Float.Array.unsafe_get keys i in
      let j = ref (i - 1) in
      while
        !j >= !lo
        &&
        let y = Float.Array.unsafe_get keys order.(!j) in
        not (y <= x || y <> y)
      do
        order.(!j + 1) <- order.(!j);
        decr j
      done;
      order.(!j + 1) <- i
    done;
    lo := hi
  done;
  (* Bottom-up merge of runs of [width], ping-ponging between buffers. *)
  let rec pass src dst width =
    if width >= n then src
    else begin
      let lo = ref 0 in
      while !lo < n do
        let mid = min n (!lo + width) in
        let hi = min n (mid + width) in
        let i = ref !lo and j = ref mid in
        for k = !lo to hi - 1 do
          if
            !i < mid
            && (!j >= hi
               ||
               let x = Float.Array.unsafe_get keys src.(!i) in
               let y = Float.Array.unsafe_get keys src.(!j) in
               x <= y || x <> x)
          then begin
            dst.(k) <- src.(!i);
            incr i
          end
          else begin
            dst.(k) <- src.(!j);
            incr j
          end
        done;
        lo := hi
      done;
      pass dst src (2 * width)
    end
  in
  pass order (Array.make n 0) stable_run

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
