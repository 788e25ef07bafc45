(* The smallest distinguishable positive value and the buckets per factor
   of ten. *)
let min_value = 1e-6
let per_decade = 90

type t = {
  mutable counts : int array;  (* grown on demand as the range widens *)
  mutable underflow : int;
  mutable infinite : int;  (* +infinity: above every finite bucket *)
  mutable total : int;
  mutable sum : float;
  mutable min_seen : float;
  mutable max_seen : float;
  mutable cursor : int;
  mutable below : int;
      (* nearest-rank cursor: a bucket index and the number of observations
         ranked below it, underflow included; successive quantiles of a
         slowly changing histogram move it a few buckets instead of walking
         from bucket 0 *)
}

let create () =
  {
    counts = Array.make 64 0;
    underflow = 0;
    infinite = 0;
    total = 0;
    sum = 0.;
    min_seen = infinity;
    max_seen = neg_infinity;
    cursor = 0;
    below = 0;
  }

let count t = t.total
let mean t = if t.total = 0 then 0. else t.sum /. float_of_int t.total
let min_recorded t = if t.total = 0 then 0. else t.min_seen
let max_recorded t = if t.total = 0 then 0. else t.max_seen

let index_of v =
  (* v >= min_value here *)
  int_of_float (floor (log10 (v /. min_value) *. float_of_int per_decade))

(* Geometric midpoint of bucket [i]: sqrt(lower * upper), i.e. the bucket
   boundary formula evaluated at i + 1/2. *)
let bucket_mid i =
  min_value *. (10. ** ((float_of_int i +. 0.5) /. float_of_int per_decade))

let ensure_capacity t i =
  let cap = Array.length t.counts in
  if i >= cap then begin
    let cap' = ref (2 * cap) in
    while i >= !cap' do
      cap' := 2 * !cap'
    done;
    let counts = Array.make !cap' 0 in
    Array.blit t.counts 0 counts 0 cap;
    t.counts <- counts
  end

let record_n t v ~n =
  if n < 0 then invalid_arg "Histogram.record_n: n < 0";
  if Float.is_nan v then invalid_arg "Histogram.record_n: NaN";
  if n > 0 then begin
    if v < min_value then begin
      t.underflow <- t.underflow + n;
      t.below <- t.below + n
    end
    else if v = infinity then t.infinite <- t.infinite + n
    else begin
      let i = index_of v in
      ensure_capacity t i;
      t.counts.(i) <- t.counts.(i) + n;
      if i < t.cursor then t.below <- t.below + n
    end;
    t.total <- t.total + n;
    t.sum <- t.sum +. (v *. float_of_int n);
    if v < t.min_seen then t.min_seen <- v;
    if v > t.max_seen then t.max_seen <- v
  end

let record t v = record_n t v ~n:1

let quantile t q =
  if q < 0. || q > 1. then invalid_arg "Histogram.quantile: q outside [0,1]";
  if t.total = 0 then 0.
  else begin
    (* Nearest rank, matching Stats.percentile: the ceil(q*n)-th smallest
       observation, clamped into [1, n]. *)
    let rank =
      max 1 (min t.total (int_of_float (ceil (q *. float_of_int t.total))))
    in
    let estimate =
      if rank <= t.underflow then min_value
      else if rank > t.total - t.infinite then t.max_seen
      else begin
        (* The answer is the bucket [i] with [below i < rank <= below i +
           counts.(i)]; move the cursor there from wherever it stands. *)
        let counts = t.counts in
        while t.below >= rank do
          t.cursor <- t.cursor - 1;
          t.below <- t.below - counts.(t.cursor)
        done;
        while t.below + counts.(t.cursor) < rank do
          t.below <- t.below + counts.(t.cursor);
          t.cursor <- t.cursor + 1
        done;
        bucket_mid t.cursor
      end
    in
    (* The exact min/max are tracked; never report outside them. *)
    max t.min_seen (min t.max_seen estimate)
  end

let percentile t p = quantile t (p /. 100.)

let merge_into t ~from =
  ensure_capacity t (Array.length from.counts - 1);
  Array.iteri
    (fun i c -> if c > 0 then t.counts.(i) <- t.counts.(i) + c)
    from.counts;
  t.underflow <- t.underflow + from.underflow;
  t.infinite <- t.infinite + from.infinite;
  t.total <- t.total + from.total;
  t.cursor <- 0;
  t.below <- t.underflow;
  t.sum <- t.sum +. from.sum;
  if from.min_seen < t.min_seen then t.min_seen <- from.min_seen;
  if from.max_seen > t.max_seen then t.max_seen <- from.max_seen

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.underflow <- 0;
  t.infinite <- 0;
  t.total <- 0;
  t.cursor <- 0;
  t.below <- 0;
  t.sum <- 0.;
  t.min_seen <- infinity;
  t.max_seen <- neg_infinity

let buckets t =
  let acc = ref [] in
  for i = Array.length t.counts - 1 downto 0 do
    if t.counts.(i) > 0 then acc := (i, t.counts.(i)) :: !acc
  done;
  if t.underflow > 0 then (-1, t.underflow) :: !acc else !acc
