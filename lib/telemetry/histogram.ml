(* The smallest distinguishable positive value and the buckets per factor
   of ten. *)
let min_value = 1e-6
let per_decade = 90

(* An all-float record is stored flat, so updating a field allocates
   nothing. *)
type moments = {
  mutable sum : float;
  mutable min_seen : float;
  mutable max_seen : float;
  mutable mid : float;  (* [bucket_mid mid_of] *)
}

type t = {
  mutable counts : int array;  (* grown on demand as the range widens *)
  mutable underflow : int;
  mutable infinite : int;  (* +infinity: above every finite bucket *)
  mutable total : int;
  m : moments;
  mutable cursor : int;
  mutable below : int;
      (* nearest-rank cursor: a bucket index and the number of observations
         ranked below it, underflow included; successive quantiles of a
         slowly changing histogram move it a few buckets instead of walking
         from bucket 0 *)
  mutable mid_of : int;  (* the bucket whose midpoint [m.mid] holds *)
}

let create () =
  {
    counts = Array.make 64 0;
    underflow = 0;
    infinite = 0;
    total = 0;
    m = { sum = 0.; min_seen = infinity; max_seen = neg_infinity; mid = nan };
    cursor = 0;
    below = 0;
    mid_of = -1;
  }

let count t = t.total
let mean t = if t.total = 0 then 0. else t.m.sum /. float_of_int t.total
let min_recorded t = if t.total = 0 then 0. else t.m.min_seen
let max_recorded t = if t.total = 0 then 0. else t.m.max_seen

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

(* The bucket a non-NaN value lands in: an index, or one of these two. *)
let underflow_bucket = -1
let infinite_bucket = -2

let bucket_of v =
  if v < min_value then underflow_bucket
  else if v = infinity then infinite_bucket
  else index_of v

let add t v ~bucket:i ~n =
  if i = underflow_bucket then begin
    t.underflow <- t.underflow + n;
    t.below <- t.below + n
  end
  else if i = infinite_bucket then t.infinite <- t.infinite + n
  else begin
    ensure_capacity t i;
    t.counts.(i) <- t.counts.(i) + n;
    if i < t.cursor then t.below <- t.below + n
  end;
  t.total <- t.total + n;
  let m = t.m in
  m.sum <- m.sum +. (v *. float_of_int n);
  if v < m.min_seen then m.min_seen <- v;
  if v > m.max_seen then m.max_seen <- v

let record_n t v ~n =
  if n < 0 then invalid_arg "Histogram.record_n: n < 0";
  if Float.is_nan v then invalid_arg "Histogram.record_n: NaN";
  if n > 0 then add t v ~bucket:(bucket_of v) ~n

let record t v = record_n t v ~n:1

let record_both a b v =
  if Float.is_nan v then invalid_arg "Histogram.record_both: NaN";
  let bucket = bucket_of v in
  add a v ~bucket ~n:1;
  add b v ~bucket ~n:1

let quantile t q =
  if q < 0. || q > 1. then invalid_arg "Histogram.quantile: q outside [0,1]";
  if t.total = 0 then 0.
  else begin
    (* Nearest rank, matching Stats.percentile: the ceil(q*n)-th smallest
       observation, clamped into [1, n]. *)
    let rank =
      max 1 (min t.total (int_of_float (ceil (q *. float_of_int t.total))))
    in
    let m = t.m in
    let estimate =
      if rank <= t.underflow then min_value
      else if rank > t.total - t.infinite then m.max_seen
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
        if t.mid_of <> t.cursor then begin
          m.mid <- bucket_mid t.cursor;
          t.mid_of <- t.cursor
        end;
        m.mid
      end
    in
    (* The exact min/max are tracked; never report outside them.  This is
       [max min_seen (min max_seen estimate)], written on floats so that
       nothing is boxed for a polymorphic comparison. *)
    let below_max = if m.max_seen <= estimate then m.max_seen else estimate in
    if m.min_seen >= below_max then m.min_seen else below_max
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
  t.m.sum <- t.m.sum +. from.m.sum;
  if from.m.min_seen < t.m.min_seen then t.m.min_seen <- from.m.min_seen;
  if from.m.max_seen > t.m.max_seen then t.m.max_seen <- from.m.max_seen

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.underflow <- 0;
  t.infinite <- 0;
  t.total <- 0;
  t.cursor <- 0;
  t.below <- 0;
  t.m.sum <- 0.;
  t.m.min_seen <- infinity;
  t.m.max_seen <- neg_infinity

let buckets t =
  let acc = ref [] in
  for i = Array.length t.counts - 1 downto 0 do
    if t.counts.(i) > 0 then acc := (i, t.counts.(i)) :: !acc
  done;
  if t.underflow > 0 then (-1, t.underflow) :: !acc else !acc
