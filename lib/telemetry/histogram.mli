(** Log-bucketed (HDR-style) latency histogram.

    Values are binned into geometrically spaced buckets — 90 buckets per
    factor of ten, so every recorded value is represented with bounded
    {e relative} error: a quantile estimate lands in the same bucket as
    the exact sort-based quantile and therefore deviates from it by at
    most one bucket width (a factor of [10^(1/90)], ≈2.6 %).

    Recording is O(1) (one [log10] and an array increment), memory is
    proportional to the dynamic range actually observed, and histograms
    merge by plain bucket-count addition — the merge is exact, lossless
    and associative, which is what makes per-window or per-shard
    snapshots aggregatable. *)

type t

val create : unit -> t
(** An empty histogram.  Its smallest distinguishable positive value is
    [1e-6]: anything smaller, zero included, lands in the underflow
    bucket and reports as [1e-6]. *)

val record : t -> float -> unit
(** Record one observation.  Negative values, [neg_infinity] included,
    count as underflow; [infinity] ranks above every finite bucket.
    @raise Invalid_argument on a NaN. *)

val record_n : t -> float -> n:int -> unit
(** Record the same value [n] times ([n >= 0]).
    @raise Invalid_argument on a NaN. *)

val record_both : t -> t -> float -> unit
(** [record_both a b v] is [record a v; record b v], bit for bit, with the
    bucket of [v] found once.
    @raise Invalid_argument on a NaN. *)

val count : t -> int
(** Total observations recorded. *)

val mean : t -> float
(** Exact mean; 0 when empty. *)

val min_recorded : t -> float
(** Exact smallest recorded value; 0 when empty. *)

val max_recorded : t -> float
(** Exact largest recorded value; 0 when empty. *)

val quantile : t -> float -> float
(** [quantile t q] with [q] in [[0, 1]]: nearest-rank quantile estimate —
    the geometric midpoint of the bucket holding the [ceil (q * count)]-th
    smallest observation, clamped to the exact observed min/max.  A rank
    among the [infinity] observations reports {!max_recorded}, that is
    [infinity].  0 when empty.  The bucket search starts where the
    previous one ended, and the last bucket's midpoint is kept, so
    repeated quantiles of a slowly changing histogram cost a few buckets
    each and no power of ten while the answer stays in one bucket.
    @raise Invalid_argument when [q] is outside [[0, 1]]. *)

val percentile : t -> float -> float
(** [percentile t p] = [quantile t (p /. 100.)]. *)

val merge_into : t -> from:t -> unit
(** Add every observation of [from] into the first histogram.  Exact:
    bucket counts add, so merging is associative and commutative. *)

val reset : t -> unit
(** Forget every observation. *)

val buckets : t -> (int * int) list
(** Non-empty buckets as [(index, count)], ascending; underflow is index
    [-1].  Bucket [i] covers values in
    [[1e-6 * 10^(i/90), 1e-6 * 10^((i+1)/90))].
    [infinity] observations are in {!count} but in no bucket. *)

