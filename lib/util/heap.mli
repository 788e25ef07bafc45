(** Binary min-heap priority queue keyed on time, for discrete-event
    simulation.

    Entries are ordered by [(time, rank, insertion sequence)]: earliest
    time first; at equal times the lowest rank wins (event categories —
    e.g. faults before internal events before arrivals); at equal time
    and rank, FIFO.  This total order makes a heap-driven event loop
    reproduce exactly what merging independently sorted event lists
    yields, so simulations stay bit-identical under the refactor.

    Keys live in an unboxed float array, ranks and sequence numbers in int
    arrays, and payloads in a parallel array, all grown by doubling, so
    pushing millions of events allocates O(log n) arrays in total.  Each
    entry still costs boxes: {!add} stores the payload as [Some v], and
    {!pop_timed} returns a fresh [Some (time, v)] with the time boxed. *)

type 'a t

val create : unit -> 'a t
(** Empty heap, its backing arrays sized for 256 entries. *)

val add : 'a t -> time:float -> ?rank:int -> 'a -> unit
(** Push an entry.  [rank] breaks ties among equal times (default 0);
    insertion order breaks ties among equal [(time, rank)]. *)

val pop_timed : 'a t -> (float * 'a) option
(** Remove and return the minimum entry as [(time, payload)]. *)

val drain_until : 'a t -> time:float -> f:(float -> 'a -> unit) -> unit
(** Pop every entry at or before [time] in the heap's order
    ([Float.compare]), in order, applying [f].  Entries [f] itself pushes
    are drained too when they fall inside the bound.  An event loop that
    streams a sorted outside source past the heap calls this before each
    outside item, so heap entries go first at equal times. *)
