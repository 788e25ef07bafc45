(** Cluster topology: backends assigned to fault domains (zones).

    The paper's allocation model (Eqs. 8-11) treats backends as independent
    failure units, but production clusters fail in correlated ways — a rack
    loses power, a zone drops off the network.  A topology maps each backend
    index to a fault domain so that placement ({!Ksafety}), verification
    ({!Check_allocation} via cdbs_analysis) and repair can enforce a
    {e spread constraint}: the k+1 replicas of every fragment must span
    [min (k+1) zones] distinct domains, making the allocation survive the
    loss of a whole domain, not just of k arbitrary backends.

    A topology is immutable; zone indices are dense [0 .. zones-1] and every
    zone is populated. *)

type t

val make : int array -> t
(** [make zone_of] where [zone_of.(b)] is backend [b]'s zone.
    @raise Invalid_argument on an empty array, a negative zone index, or an
    unpopulated zone (zone indices must be dense). *)

val uniform : zones:int -> int -> t
(** [uniform ~zones n]: [n] backends striped round-robin over [zones]
    domains ([b mod zones] — backend 0 in zone 0, backend 1 in zone 1, ...).
    @raise Invalid_argument when [zones <= 0] or [n < zones]. *)

val zones : t -> int
val num_backends : t -> int

val zone_of : t -> int -> int
(** @raise Invalid_argument on an out-of-range backend index. *)

val backends_in : t -> int -> int list
(** Backends of a zone, ascending. @raise Invalid_argument out of range. *)

val zones_spanned : t -> int list -> int
(** Number of distinct zones covered by a backend list (out-of-range
    indices are ignored; duplicates count once). *)

