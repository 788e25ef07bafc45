(** Catalog of tables forming one backend's local database. *)

type t

val create : Schema.t -> t
(** Instantiate empty tables for every table of the schema. *)

val create_partial : Schema.t -> tables:string list -> t
(** Instantiate only the listed tables — a partially replicated backend. *)

val table : t -> string -> Table.t option
val table_names : t -> string list

val insert : t -> string -> Value.t array -> (unit, string) result

val copy_table_into : src:t -> dst:t -> string -> (int, string) result
(** Bulk-copy a table's rows from [src] to [dst] (the ETL step of physical
    allocation); returns the number of rows copied. *)

val install_table : src:t -> dst:t -> string -> (int, string) result
(** Atomically replace (or create) [dst]'s table with a copy of [src]'s —
    the cutover step of a live migration: the staged snapshot-plus-deltas
    becomes the serving copy in one catalog swap.  Unlike
    {!copy_table_into}, the destination need not already host the table,
    only know it in its schema. *)

val drop_table : t -> string -> unit
(** Remove the table from the catalog (the contract phase of a live
    migration).  A no-op when the database does not host it. *)
