open Cdbs_core

type 'a capture = {
  mutable items : 'a list;  (* reversed arrival order *)
  mutable mb : float;
}

type 'a t = {
  (* Keyed by (dest, fragment identity); sizes do not participate in
     fragment identity, so the key is the kind. *)
  captures : (int * Fragment.kind, 'a capture) Hashtbl.t;
  mutable lifetime_mb : float;
}

let create () = { captures = Hashtbl.create 16; lifetime_mb = 0. }

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
  t.lifetime_mb <- t.lifetime_mb +. (mb *. float_of_int !hits);
  !hits

let pending_mb t ~dest ~fragment =
  match Hashtbl.find_opt t.captures (key ~dest ~fragment) with
  | Some c -> c.mb
  | None -> 0.

let drain t ~dest ~fragment =
  let k = key ~dest ~fragment in
  match Hashtbl.find_opt t.captures k with
  | None -> ([], 0.)
  | Some c ->
      Hashtbl.remove t.captures k;
      (List.rev c.items, c.mb)

let open_captures t =
  Hashtbl.fold
    (fun (dest, kind) _ acc ->
      ({ Fragment.kind; size = 0. } |> fun f -> (dest, f)) :: acc)
    t.captures []

let total_captured_mb t = t.lifetime_mb
