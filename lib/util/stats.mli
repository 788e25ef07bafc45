(** Small descriptive-statistics helpers used by the simulator and the
    benchmark harness. *)

val mean : float list -> float
(** Arithmetic mean; 0 for the empty list. *)

val stdev : float list -> float
(** Population standard deviation; 0 for lists shorter than 2. *)

val minimum : float list -> float
val maximum : float list -> float

val nearest_rank : float array -> float -> float
(** [nearest_rank xs] copies [xs] once and returns the nearest-rank
    percentile of that sample: [p] in [0,100] maps to the
    [ceil (p/100 * n)]-th smallest value, the smallest for [p = 0].  The
    value has the bits a stable sort of the copy with [Float.compare] (the
    order [compare] gives floats) would place at that rank; each query
    selects it in linear expected time.  Apply it once and query it for
    several [p] to share the copy.
    @raise Invalid_argument when queried on an empty sample. *)

val percentile : float -> float list -> float
(** [percentile p xs] is [nearest_rank (Array.of_list xs) p].
    @raise Invalid_argument on an empty list. *)

val relative_deviation : float list -> float
(** Mean absolute deviation from the mean, relative to the mean — the
    "deviation from balance" measure plotted in Fig. 4(j). 0 when the mean
    is 0. *)

val histogram : bins:int -> lo:float -> hi:float -> float list -> int array
(** Fixed-width histogram; values outside [lo, hi] clamp to the end bins. *)
