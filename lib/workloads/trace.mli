(** E-learning workload trace (paper Sec. 5, Figs. "active servers", 5, 6).

    The paper replays the backend database accesses of a Web-based
    e-learning tool from October 20, 2009 — only request-rate statistics
    were available (privacy), so this module synthesizes a day with the
    same shape: a deep night trough (3 am – 6 am), a steep morning ramp, a
    midday plateau around 3500–4500 requests / 10 min and an evening
    decline; the class mix shifts over the day with class B dominating at
    night (Fig. 6). *)

val schema : Cdbs_storage.Schema.t
(** Five-table e-learning schema (users, courses, content, forum, quiz). *)

val row_counts : (string * int) list

val rate_per_10min : hour:float -> float
(** The request-rate profile (requests per 10 minutes) at a given hour of
    day [0, 24). *)

val class_mix : hour:float -> (string * float) list
(** Cost shares of the five classes A–E at the given hour; sums to 1.
    Class B dominates between 3 am and 8 am. *)

val specs_at : hour:float -> Spec.class_spec list
(** The class specifications weighted by the hour's mix. *)

val specs_of_mix : mix:(string * float) list -> Spec.class_spec list
(** The class specifications for an {e arbitrary} read mix over A–E
    (weights normalized over the listed read classes; unknown ids are
    ignored, missing ids get weight 0); the update classes keep their
    fixed weights.  [specs_at ~hour] is [specs_of_mix] applied to
    {!class_mix}. *)

val mix_at : hour:float -> (string * float) list
(** The per-window class mix the generator actually uses, as workload
    weights: every class (reads {e and} updates) with its normalized
    share of the total cost, summing to 1.  This is exactly the weight
    vector behind {!specs_at}/{!workload_at}, exposed so tests (and the
    drift detector) can assert the shift a generated window carries
    instead of re-deriving it. *)

val journal_for_day :
  rng:Cdbs_util.Rng.t -> scale:float -> Cdbs_core.Journal.t
(** The corresponding query journal (footprint-level entries encoded as
    synthetic SQL), timestamped for {!Cdbs_core.Segmented}. *)

val workload_at : hour:float -> Cdbs_core.Workload.t
(** Classified workload for a single hour's mix, table granularity. *)

val workload_of_mix : mix:(string * float) list -> Cdbs_core.Workload.t
(** Classified workload for an arbitrary read mix (see {!specs_of_mix}),
    table granularity. *)
