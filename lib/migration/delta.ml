open Cdbs_core

type 'a capture = {
  mutable items : 'a list;  (* reversed arrival order *)
  mutable mb : float;
}

type 'a t = {
  (* Keyed by (dest, fragment identity); sizes do not participate in
     fragment identity, so the key is the kind. *)
  captures : (int * Fragment.kind, 'a capture) Hashtbl.t;
}

let create () = { captures = Hashtbl.create 16 }

let key ~dest ~(fragment : Fragment.t) = (dest, fragment.Fragment.kind)

let open_capture t ~dest ~fragment =
  Hashtbl.replace t.captures (key ~dest ~fragment) { items = []; mb = 0. }

let is_empty t = Hashtbl.length t.captures = 0

let capture t ~fragment ~item ~mb =
  let hits = ref 0 in
  Hashtbl.iter
    (fun (_, kind) c ->
      if kind = fragment.Fragment.kind then begin
        c.items <- item :: c.items;
        c.mb <- c.mb +. mb;
        incr hits
      end)
    t.captures;
  !hits

let drain t ~dest ~fragment =
  let k = key ~dest ~fragment in
  match Hashtbl.find_opt t.captures k with
  | None -> ([], 0.)
  | Some c ->
      Hashtbl.remove t.captures k;
      (List.rev c.items, c.mb)
