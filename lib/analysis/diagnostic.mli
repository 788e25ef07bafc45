(** Diagnostics — the common currency of the static plan verifier.

    Every checker ({!Check_allocation}, {!Check_migration},
    {!Check_workload}) reports its findings as a list of diagnostics: a
    severity, a stable machine-readable code (["ALC003"]), the artifact
    location it refers to (["class Q2"], ["backend B3"], ["move
    lineitem->B2"]), a human message, and a machine-readable payload of
    named values.  Codes are stable across releases so CI pipelines can
    allowlist or gate on them; messages are not.

    Code namespaces: [ALC*] allocation, [WKL*] workload, [MIG*] migration
    plan, [SCH*] copy schedule, [DLT*] delta journal, [TRC*] trace
    protocol (runtime verification, {!Monitor}), [RES*] resilience
    policy ({!Check_policy}), [FLT*] fault timeline ({!Check_faults}). *)

type severity = Error | Warning | Info

type value = Str of string | Num of float | Int of int | Bool of bool
(** Payload values — what a machine consumer needs to act on the finding
    without parsing the message. *)

type t = {
  severity : severity;
  code : string;
  subject : string;  (** artifact location, e.g. ["class Q2"] *)
  message : string;
  data : (string * value) list;
}

val error :
  code:string -> subject:string -> ?data:(string * value) list ->
  ('a, unit, string, t) format4 -> 'a

val warning :
  code:string -> subject:string -> ?data:(string * value) list ->
  ('a, unit, string, t) format4 -> 'a

val info :
  code:string -> subject:string -> ?data:(string * value) list ->
  ('a, unit, string, t) format4 -> 'a

val severity_label : severity -> string
(** ["error"], ["warning"] or ["info"]. *)

(** {1 Reports} *)

val errors : t list -> t list
val warnings : t list -> t list

val sort : t list -> t list
(** Stable order: errors first, then warnings, then infos; within a
    severity by code, then subject. *)

val summary : t list -> string
(** e.g. ["2 errors, 1 warning"]; ["clean"] when empty. *)

(** {1 Renderers} *)

val pp : t Fmt.t
(** One line: [error ALC003 [class Q2]: read class assigned 0.80 of
    weight 1.00]. *)

val pp_report : t list Fmt.t
(** All diagnostics in {!sort} order, one per line, followed by the
    {!summary}. *)

val to_json : t -> string
(** One diagnostic as a JSON object; payload values keep their types
    (non-finite floats are rendered as JSON strings). *)

val list_to_json : t list -> string
(** A JSON array of {!to_json} objects, in {!sort} order. *)

val json_string : string -> string
(** A string as a quoted JSON string literal, control characters
    escaped. *)
