(** Deterministic synthetic data generation for a schema.

    Stands in for the official TPC data generators: rows are filled with
    seeded pseudo-random values of the right type, with sequential integer
    primary keys so referential lookups and point updates work. *)

val populate : Cdbs_util.Rng.t -> Database.t -> rows_per_table:(string * int) list -> unit
(** Populate each listed table of the database. Tables not listed stay
    empty; unknown table names are ignored. *)
