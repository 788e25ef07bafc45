type config = { threshold : float; hysteresis : float; cooldown_s : float }

let default = { threshold = 0.5; hysteresis = 0.2; cooldown_s = 7200. }

let validate_config c =
  if
    not
      (Float.is_finite c.threshold && c.threshold > 0.
      && Float.is_finite c.hysteresis
      && c.hysteresis >= 0.
      && c.hysteresis < c.threshold
      && Float.is_finite c.cooldown_s && c.cooldown_s >= 0.)
  then
    invalid_arg
      "Drift: need 0 < threshold, 0 <= hysteresis < threshold, cooldown >= 0"

type t = {
  cfg : config;
  mutable armed : bool;
  mutable cooldown_until : float;
}

let create cfg =
  validate_config cfg;
  { cfg; armed = true; cooldown_until = neg_infinity }

(* Weighted relative error over the class mix.  Both vectors are
   re-normalized over their union, so callers can pass raw weights. *)
let floor_share = 0.01

let score ~assumed ~measured =
  let norm mix =
    let total =
      List.fold_left (fun acc (_, w) -> acc +. max 0. w) 0. mix
    in
    if total <= 0. then fun _ -> 0.
    else fun id ->
      max 0. (Option.value ~default:0. (List.assoc_opt id mix)) /. total
  in
  let a = norm assumed and m = norm measured in
  let ids =
    List.sort_uniq String.compare
      (List.map fst assumed @ List.map fst measured)
  in
  List.fold_left
    (fun acc id ->
      let av = a id and mv = m id in
      acc +. (max av mv *. Float.abs (mv -. av) /. max av floor_share))
    0. ids

let update t ~now ~score =
  if score <= t.cfg.threshold -. t.cfg.hysteresis then t.armed <- true;
  if t.armed && score >= t.cfg.threshold && now >= t.cooldown_until then begin
    t.armed <- false;
    true
  end
  else false

let action_done t ~now = t.cooldown_until <- now +. t.cfg.cooldown_s
