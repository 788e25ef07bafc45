(* Dead-code check over the compiler's typed trees.

   Usage: deadcode BUILD_DIR ALLOW_LIST

   Reads every .cmt and .cmti file under BUILD_DIR (`dune build @check`
   writes them under _build/default) and resolves each reference by its
   path.  The type checker has already resolved opens and local opens;
   module aliases (`module A = M`, `let module A = M in`, dune's wrapper
   modules) and re-exported types (`type t = M.t = { ... }`) are resolved
   here.  So another module's value, a type or a record field of the same
   name is never taken for a use.  A file is a test when its source sits
   under test/; the exports are the values, record fields and
   constructors of the lib/ interfaces.  The check fails on:

     unreferenced   an exported value nothing uses: delete it;
     internal-only  an exported value only its own module uses: take it
                    out of the .mli;
     test-only      an exported value only tests use;
     unread field   a field of an exported record type that no field
                    access or record pattern reads;
     unsupplied     an optional argument of a used exported value that no
                    call outside test/ supplies: make it a constant;
     stale          an allow-list entry that names nothing, or nothing the
                    check would report;
     no reason      an allow-list entry that gives no reason.

   An omitted optional argument is a [None] the type checker inserts at
   [Location.none]; a forwarded `?x`, and any reference that is not the
   head of an application (the value escapes), count as supplying it.
   The check also reports, without failing, the constructors of exported
   variant types that only tests build.

   An allow-list line is `Module.value  reason` (a test-only export that
   stays), `Module.value ?label  reason` (an optional argument only tests
   supply) or `Module.type.field  reason` (an unread field that stays);
   `#` starts a comment.  The check prints one line per finding and a
   count of what it read, and exits 1 when a finding fails it, 0
   otherwise. *)

open Typedtree

let is_test src = String.starts_with ~prefix:"test/" src
let is_lib src = String.starts_with ~prefix:"lib/" src

(* ---- What one typed tree contributes ---- *)

type local = Declared of string list | Alias of Path.t

type item =
  | Use of Path.t * bool  (** a value; [true] when it heads an application *)
  | Supply of Path.t * string  (** an optional argument passed to a value *)
  | Read of Path.t * string  (** a field of the record type at the path *)
  | Build of Path.t * string  (** a constructor of the type at the path *)

type unit_info = {
  modname : string;
  source : string;
  locals : (Ident.t, local) Hashtbl.t;
  mutable items : item list;
}

(* A value, field or constructor of a lib/ interface.  [key] is the
   resolved path of the value, or of the type that owns the field or
   constructor. *)
type decl = { key : string list; name : string; src : string }

type export = { value : decl; opts : string list }

let aliases : (string list, unit_info * Path.t) Hashtbl.t = Hashtbl.create 256
let manifests : (string list, unit_info * Path.t) Hashtbl.t = Hashtbl.create 64
let exports = ref []
let fields = ref []
let ctors = ref []

(* A path as the unit-qualified name of what it denotes, [None] for a
   local of a function body or a functor application. *)
let rec resolve u = function
  | Path.Pident id when Ident.global id -> Some (canon [ Ident.name id ])
  | Path.Pident id -> (
      match Hashtbl.find_opt u.locals id with
      | Some (Declared l) -> Some l
      | Some (Alias p) -> resolve u p
      | None -> None)
  | Path.Pdot (p, s) -> Option.map (fun l -> canon (l @ [ s ])) (resolve u p)
  | _ -> None

and canon l =
  match Hashtbl.find_opt aliases l with
  | Some (u, p) -> Option.value ~default:l (resolve u p)
  | None -> l

let rec canon_type l =
  match Hashtbl.find_opt manifests l with
  | Some (u, p) -> (
      match resolve u p with Some l' when l' <> l -> canon_type l' | _ -> l)
  | None -> l

let type_path ty =
  match Types.get_desc ty with Tconstr (p, _, _) -> Some p | _ -> None

let rec optionals ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, rest, _) -> l :: optionals rest
  | Tarrow (_, _, rest, _) -> optionals rest
  | _ -> []

let alias_target me =
  match me.mod_desc with
  | Tmod_ident (p, _)
  | Tmod_constraint ({ mod_desc = Tmod_ident (p, _); _ }, _, _, _) ->
      Some p
  | _ -> None

(* Binds a type declaration's ident; [None] when it re-exports another
   type, whose fields and constructors are the ones that count. *)
let type_decl u prefix d =
  let key = prefix @ [ d.typ_name.txt ] in
  Hashtbl.replace u.locals d.typ_id (Declared key);
  match (d.typ_manifest, d.typ_kind) with
  | ( Some { ctyp_desc = Ttyp_constr (p, _, _); _ },
      (Ttype_record _ | Ttype_variant _) ) ->
      Hashtbl.replace manifests key (u, p);
      None
  | _ -> Some key

(* ---- Interfaces: the exports ---- *)

let rec signature u src prefix sg =
  let member acc key name = acc := { key; name; src } :: !acc in
  List.iter
    (fun si ->
      match si.sig_desc with
      | Tsig_value vd ->
          let key = prefix @ [ vd.val_name.txt ] in
          let value = { key; name = vd.val_name.txt; src } in
          exports :=
            { value; opts = optionals vd.val_val.val_type } :: !exports
      | Tsig_type (_, decls) ->
          List.iter
            (fun d ->
              match (type_decl u prefix d, d.typ_kind) with
              | Some key, Ttype_record lds ->
                  List.iter (fun ld -> member fields key ld.ld_name.txt) lds
              | Some key, Ttype_variant cds ->
                  List.iter (fun cd -> member ctors key cd.cd_name.txt) cds
              | _ -> ())
            decls
      | Tsig_module
          { md_id = Some id; md_name = { txt = Some name; _ }; md_type; _ }
        -> (
          let key = prefix @ [ name ] in
          match md_type.mty_desc with
          | Tmty_alias (p, _) ->
              Hashtbl.replace u.locals id (Alias p);
              Hashtbl.replace aliases key (u, p)
          | Tmty_signature sg ->
              Hashtbl.replace u.locals id (Declared key);
              signature u src key sg
          | _ -> Hashtbl.replace u.locals id (Declared key))
      | _ -> ())
    sg.sig_items

(* ---- Implementations: the references ---- *)

let omitted e =
  Location.is_none e.exp_loc
  &&
  match e.exp_desc with
  | Texp_construct (_, { cstr_name = "None"; _ }, []) -> true
  | _ -> false

let structure u str =
  let prefix = ref [ u.modname ] in
  let bind id =
    Hashtbl.replace u.locals id (Declared (!prefix @ [ Ident.name id ]))
  in
  let add i = u.items <- i :: u.items in
  let member f (ty : Types.type_expr) name =
    Option.iter (fun p -> add (f p name)) (type_path ty)
  in
  let read (lbl : Types.label_description) =
    member (fun p n -> Read (p, n)) lbl.lbl_res lbl.lbl_name
  in
  let open Tast_iterator in
  let structure_item sub si =
    (match si.str_desc with
    | Tstr_value (_, vbs) -> List.iter bind (let_bound_idents vbs)
    | Tstr_primitive vd -> bind vd.val_id
    | Tstr_type (_, decls) ->
        List.iter (fun d -> ignore (type_decl u !prefix d)) decls
    | _ -> ());
    default_iterator.structure_item sub si
  in
  let module_binding sub mb =
    let saved = !prefix in
    Option.iter
      (fun id ->
        (match alias_target mb.mb_expr with
        | Some p ->
            Hashtbl.replace u.locals id (Alias p);
            Hashtbl.replace aliases (!prefix @ [ Ident.name id ]) (u, p)
        | None -> bind id);
        prefix := !prefix @ [ Ident.name id ])
      mb.mb_id;
    default_iterator.module_binding sub mb;
    prefix := saved
  in
  let expr sub e =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> add (Use (p, false))
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
        add (Use (p, true));
        List.iter
          (fun (label, arg) ->
            match (label, arg) with
            | Asttypes.Optional l, Some a when not (omitted a) ->
                add (Supply (p, l))
            | _ -> ())
          args;
        List.iter (fun (_, arg) -> Option.iter (sub.expr sub) arg) args
    | Texp_field (_, _, lbl) ->
        read lbl;
        default_iterator.expr sub e
    | Texp_construct (_, cd, _) ->
        member (fun p n -> Build (p, n)) cd.cstr_res cd.cstr_name;
        default_iterator.expr sub e
    | Texp_letmodule (id, _, _, me, _) ->
        (* The same shape on OCaml 5.1 and 5.2.  What the module defines
           belongs to no path of the unit. *)
        (match (id, alias_target me) with
        | Some id, Some p -> Hashtbl.replace u.locals id (Alias p)
        | _ -> ());
        let saved = !prefix in
        prefix := [ "<local>" ];
        default_iterator.expr sub e;
        prefix := saved
    | _ -> default_iterator.expr sub e
  in
  let pat : type k. iterator -> k general_pattern -> unit =
   fun sub p ->
    (match p.pat_desc with
    | Tpat_record (lbls, _) -> List.iter (fun (_, lbl, _) -> read lbl) lbls
    | _ -> ());
    default_iterator.pat sub p
  in
  let it =
    { default_iterator with structure_item; module_binding; expr; pat }
  in
  it.structure it str

let rec cmt_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then cmt_files path
         else if List.exists (Filename.check_suffix f) [ ".cmt"; ".cmti" ] then
           [ path ]
         else [])

let load path =
  let cmt = Cmt_format.read_cmt path in
  let source = Option.value ~default:path cmt.cmt_sourcefile in
  let locals = Hashtbl.create 64 in
  let u = { modname = cmt.cmt_modname; source; locals; items = [] } in
  (match cmt.cmt_annots with
  | Implementation str -> structure u str
  | Interface sg when is_lib source -> signature u source [ u.modname ] sg
  | _ -> ());
  u

(* ---- The allow-list ---- *)

type entry = {
  line : int;
  name : string;
  label : string option;
  reason : string;
}

let read_allow path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.mapi (fun i line ->
         let words =
           List.hd (String.split_on_char '#' line)
           |> String.split_on_char ' '
           |> List.filter (( <> ) "")
         in
         match words with
         | [] -> None
         | name :: rest ->
             let label, rest =
               match rest with
               | l :: rest when String.starts_with ~prefix:"?" l ->
                   (Some (String.sub l 1 (String.length l - 1)), rest)
               | _ -> (None, rest)
             in
             let reason = String.concat " " rest in
             Some { line = i + 1; name; label; reason })
  |> List.filter_map Fun.id

(* ---- The verdicts ---- *)

(* A key as the allow-list names it: dune's `Cdbs_core__Allocation` is
   `Allocation`. *)
let display key =
  let unit = List.hd key in
  let rec short i =
    if i < 1 then unit
    else if unit.[i - 1] = '_' && unit.[i] = '_' then
      String.sub unit (i + 1) (String.length unit - i - 1)
    else short (i - 1)
  in
  String.concat "." (short (String.length unit - 1) :: List.tl key)

let () =
  let build_dir, allow_path =
    match Sys.argv with
    | [| _; b; a |] -> (b, a)
    | _ ->
        prerr_endline "usage: deadcode BUILD_DIR ALLOW_LIST";
        exit 2
  in
  let units = List.map load (cmt_files build_dir) in
  let uses = Hashtbl.create 4096 and supplies = Hashtbl.create 1024 in
  let reads = Hashtbl.create 4096 and builds = Hashtbl.create 1024 in
  List.iter
    (fun u ->
      let on p f = Option.iter f (resolve u p) in
      let member tbl p name =
        on p (fun k -> Hashtbl.add tbl (canon_type k, name) u.source)
      in
      List.iter
        (function
          | Use (p, head) ->
              on p (fun k -> Hashtbl.add uses k (u.source, u.modname, head))
          | Supply (p, l) ->
              on p (fun k -> Hashtbl.add supplies (k, l) u.source)
          | Read (p, n) -> member reads p n
          | Build (p, n) -> member builds p n)
        u.items)
    units;
  let sources tbl k = List.sort_uniq compare (Hashtbl.find_all tbl k) in
  let allow = read_allow allow_path in
  let allowed name label =
    List.exists (fun e -> e.name = name && e.label = label) allow
  in
  let failures = ref [] and notes = ref [] and flagged = ref [] in
  let fail src fmt =
    Printf.ksprintf (fun s -> failures := (src, s) :: !failures) fmt
  in
  let listed = function
    | [] -> ""
    | srcs -> " (" ^ String.concat ", " (List.sort_uniq compare srcs) ^ ")"
  in
  List.iter
    (fun { value = v; opts } ->
      let name = display v.key in
      let refs = Hashtbl.find_all uses v.key in
      let own, outside =
        List.partition (fun (_, m, _) -> m = List.hd v.key) refs
      in
      let live = List.filter (fun (s, _, _) -> not (is_test s)) outside in
      if outside = [] && own <> [] then
        fail v.src "internal-only export %s: only its own module uses it" name
      else if outside = [] then
        fail v.src "unreferenced export %s: nothing uses it" name
      else if live = [] && own = [] then begin
        flagged := (name, None) :: !flagged;
        if not (allowed name None) then
          fail v.src "test-only export %s: only tests use it%s" name
            (listed (List.map (fun (s, _, _) -> s) outside))
      end
      else
        let escapes =
          List.exists (fun (s, _, head) -> not (head || is_test s)) refs
        in
        List.iter
          (fun l ->
            let by = sources supplies (v.key, l) in
            if not (escapes || List.exists (fun s -> not (is_test s)) by)
            then begin
              flagged := (name, Some l) :: !flagged;
              if not (allowed name (Some l)) then
                fail v.src
                  "unsupplied option %s ?%s: no call outside test/ supplies \
                   it%s"
                  name l (listed by)
            end)
          opts)
    !exports;
  List.iter
    (fun f ->
      let name = display f.key ^ "." ^ f.name in
      if not (Hashtbl.mem reads (f.key, f.name)) then begin
        flagged := (name, None) :: !flagged;
        if not (allowed name None) then
          fail f.src
            "unread field %s: no field access or record pattern reads it" name
      end)
    !fields;
  List.iter
    (fun c ->
      let by = sources builds (c.key, c.name) in
      if by <> [] && List.for_all is_test by then
        notes :=
          Printf.sprintf "note: %s: constructor %s.%s: only tests build it%s"
            c.src (display c.key) c.name (listed by)
          :: !notes)
    !ctors;
  (* The findings sorted by file, then the allow-list's in line order. *)
  failures := List.sort (Fun.flip compare) !failures;
  List.iter
    (fun e ->
      let what =
        e.name ^ Option.fold ~none:"" ~some:(fun l -> " ?" ^ l) e.label
      in
      let src = Printf.sprintf "%s:%d" allow_path e.line in
      let value =
        List.find_opt (fun x -> display x.value.key = e.name) !exports
      in
      let field =
        List.exists (fun f -> display f.key ^ "." ^ f.name = e.name) !fields
      in
      if e.reason = "" then fail src "entry %s gives no reason" what;
      match (value, e.label) with
      | _ when List.mem (e.name, e.label) !flagged -> ()
      | None, None when field -> fail src "stale entry %s: a read field" what
      | None, _ -> fail src "stale entry %s: no such export" what
      | Some x, Some l when not (List.mem l x.opts) ->
          fail src "stale entry %s: no such optional argument" what
      | _, None -> fail src "stale entry %s: not a test-only export" what
      | _, Some _ -> fail src "stale entry %s: supplied outside test/" what)
    allow;
  List.iter print_endline (List.sort compare !notes);
  Printf.printf
    "deadcode: %d exported values, %d optional arguments, %d record fields, \
     %d constructors, %d allow-list entries\n"
    (List.length !exports)
    (List.fold_left (fun n e -> n + List.length e.opts) 0 !exports)
    (List.length !fields) (List.length !ctors) (List.length allow);
  List.iter
    (fun (src, s) -> Printf.printf "%s: %s\n" src s)
    (List.rev !failures);
  if !failures <> [] then begin
    Printf.eprintf "deadcode: %d problem(s)\n" (List.length !failures);
    exit 1
  end
