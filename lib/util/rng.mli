(** Deterministic splitmix64 pseudo-random generator.

    Every randomized component of the reproduction (data generation, workload
    streams, the memetic mutation operator, random allocation baseline) takes
    an explicit [Rng.t] so runs are reproducible from a single seed. *)

type t

val create : int -> t
(** [create seed] builds a generator; equal seeds yield equal streams. *)

val copy : t -> t
(** Independent copy continuing from the current state. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n-1]. [n] must be positive. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential with the given mean; used
    for inter-arrival times in the cluster simulator. *)

val split : t -> t
(** A generator statistically independent of the parent's future output. *)
