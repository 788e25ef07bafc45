type t = Bytes.t

let create n = Bytes.make ((n + 7) / 8) '\000'
let copy = Bytes.copy

let get t i =
  Char.code (Bytes.unsafe_get t (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  let j = i lsr 3 in
  Bytes.unsafe_set t j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t j) lor (1 lsl (i land 7))))

let reset t = Bytes.fill t 0 (Bytes.length t) '\000'

let blit ~src ~dst = Bytes.blit src 0 dst 0 (Bytes.length src)

(* Iterate set bits of byte [v] at base index [base]. *)
let iter_byte f base v =
  let rec go v k =
    if v <> 0 then begin
      if v land 1 <> 0 then f (base + k);
      go (v lsr 1) (k + 1)
    end
  in
  go v 0

let iter f t =
  for j = 0 to Bytes.length t - 1 do
    let v = Char.code (Bytes.unsafe_get t j) in
    if v <> 0 then iter_byte f (j lsl 3) v
  done
