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

let nearest_rank xs =
  let sorted = Array.copy xs in
  (* Stable, like [List.sort]: equal keys such as [-0.] and [0.] keep
     their input order, so the picked value is bit-identical too. *)
  Array.stable_sort Float.compare sorted;
  let n = Array.length sorted in
  fun p ->
    if n = 0 then invalid_arg "Stats.nearest_rank: empty sample";
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

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
