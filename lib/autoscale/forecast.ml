type t = { values : float option array }

(* The EWMA smoothing factor. *)
let alpha = 0.5

let create ~windows_per_day () =
  if windows_per_day <= 0 then invalid_arg "Forecast.create";
  { values = Array.make windows_per_day None }

let slot t window = ((window mod Array.length t.values) + Array.length t.values)
                    mod Array.length t.values

let observe t ~window ~rate =
  let i = slot t window in
  t.values.(i) <-
    (match t.values.(i) with
    | None -> Some rate
    | Some prev -> Some ((alpha *. rate) +. ((1. -. alpha) *. prev)))

let predict t ~window = t.values.(slot t window)

let coverage t =
  let filled =
    Array.fold_left
      (fun acc v -> if v = None then acc else acc + 1)
      0 t.values
  in
  float_of_int filled /. float_of_int (Array.length t.values)
