(** Runtime values stored in backend tables and produced by the executor. *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Null

val of_literal : Cdbs_sql.Ast.literal -> t

val compare : t -> t -> int
(** Total order: [Null] < [Bool] < numeric (Int and Float compare by value)
    < [Str]. *)

val equal : t -> t -> bool

val key : t -> t
(** What hash tables key a value by, so that they pair what {!equal}
    pairs: an integral [Float] of magnitude up to 2^53 becomes the [Int]
    it equals ([-0.0] becomes [Int 0]).  Values with structurally equal
    keys are {!equal}; {!equal} values have equal keys except where an
    [Int] beyond 2^53 meets a [Float], where {!equal} is not transitive. *)

val to_float : t -> float option
(** Numeric view, [None] for non-numeric values. *)

val truthy : t -> bool
(** SQL-ish truth: [Bool b] is [b], non-zero numbers are true, [Null] and
    everything else false. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Arithmetic promotes [Int] to [Float] when mixed; non-numeric operands
    yield [Null]. *)

val byte_size : t -> int
(** Approximate storage footprint in bytes, used by the size accounting that
    feeds the degree-of-replication measurements (paper Eq. 28). *)

val pp : t Fmt.t
