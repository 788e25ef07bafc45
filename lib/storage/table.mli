(** In-memory table storage: rows are value arrays in schema column order,
    with a hash index on the primary key when one is declared.  Rows handed
    out by {!get}, {!iter} and the lookups are the stored arrays and must
    not be mutated. *)

type t

val create : Schema.table -> t
val schema : t -> Schema.table
val row_count : t -> int

val version : t -> int
(** Counts the writes ({!insert}, {!replace}, {!delete}) the table has
    taken. *)

val insert : t -> Value.t array -> (unit, string) result
(** Fails on arity mismatch or duplicate primary key. *)

val get : t -> int -> Value.t array
(** The row at a position, [0 .. row_count - 1]. *)

val iter : (Value.t array -> unit) -> t -> unit
val iteri : (int -> Value.t array -> unit) -> t -> unit
(** With each row's position, in table order. *)

val fold : ('a -> Value.t array -> 'a) -> 'a -> t -> 'a

val primary_key_positions : t -> int list
(** Column positions of the primary key, in key order; [[]] without one. *)

val position_of_pk : t -> Value.t list -> int option
(** Position of the row whose primary-key values (in key order) have the
    given values' {!Value.key}s: [Int 2] finds a key stored as [Float 2.0]
    and the other way round.  Keys are unique in that sense. *)

val replace : t -> (int * Value.t array) list -> (unit, string) result
(** [replace t changes] puts each [(position, row)] in place, all or
    nothing: when the new rows would give two rows one primary key it
    fails and changes nothing.  Only the index entries of changed keys
    and values are touched. *)

val delete : t -> int list -> unit
(** Delete the rows at the given positions, given in increasing order.
    Rows before the first deleted one keep their positions and index
    entries; the rows after it move down and are indexed again. *)

val byte_size : t -> int
(** Total approximate bytes stored.  The first call scans the table;
    writes keep the count exact after that. *)

val column_index : t -> string -> int option
(** Position of a column in the row arrays. *)
