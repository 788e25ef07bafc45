type severity = Error | Warning | Info

type value = Str of string | Num of float | Int of int | Bool of bool

type t = {
  severity : severity;
  code : string;
  subject : string;
  message : string;
  data : (string * value) list;
}

let make severity ~code ~subject ?(data = []) message =
  { severity; code; subject; message; data }

let error ~code ~subject ?data fmt =
  Printf.ksprintf (fun m -> make Error ~code ~subject ?data m) fmt

let warning ~code ~subject ?data fmt =
  Printf.ksprintf (fun m -> make Warning ~code ~subject ?data m) fmt

let info ~code ~subject ?data fmt =
  Printf.ksprintf (fun m -> make Info ~code ~subject ?data m) fmt

let severity_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let errors ds = List.filter (fun d -> d.severity = Error) ds
let warnings ds = List.filter (fun d -> d.severity = Warning) ds

let sort ds =
  List.stable_sort
    (fun a b ->
      let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
      if c <> 0 then c
      else
        let c = String.compare a.code b.code in
        if c <> 0 then c else String.compare a.subject b.subject)
    ds

let summary ds =
  let plural n what = Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s") in
  let ne = List.length (errors ds) and nw = List.length (warnings ds) in
  let ni = List.length ds - ne - nw in
  if ne = 0 && nw = 0 && ni = 0 then "clean"
  else
    String.concat ", "
      (List.filter
         (fun s -> s <> "")
         [
           (if ne > 0 then plural ne "error" else "");
           (if nw > 0 then plural nw "warning" else "");
           (if ni > 0 then plural ni "info" else "");
         ])

let pp ppf d =
  Fmt.pf ppf "%s %s [%s]: %s" (severity_label d.severity) d.code d.subject
    d.message

let pp_report ppf ds =
  List.iter (fun d -> Fmt.pf ppf "%a@." pp d) (sort ds);
  Fmt.pf ppf "%s@." (summary ds)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_string s = "\"" ^ json_escape s ^ "\""

let json_value = function
  | Str s -> json_string s
  | Int i -> string_of_int i
  | Bool b -> if b then "true" else "false"
  | Num f ->
      if Float.is_finite f then Printf.sprintf "%.12g" f
      else json_string (Printf.sprintf "%h" f)

let to_json d =
  let fields =
    [
      ("severity", json_string (severity_label d.severity));
      ("code", json_string d.code);
      ("subject", json_string d.subject);
      ("message", json_string d.message);
    ]
    @
    match d.data with
    | [] -> []
    | data ->
        [
          ( "data",
            "{"
            ^ String.concat ","
                (List.map (fun (k, v) -> json_string k ^ ":" ^ json_value v) data)
            ^ "}" );
        ]
  in
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}"

let list_to_json ds =
  "[" ^ String.concat "," (List.map to_json (sort ds)) ^ "]"
