type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }
let copy t = { state = t.state }

let golden = 0x9E3779B97F4A7C15L

let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Mask to 62 bits so the value stays non-negative in OCaml's native
     63-bit integers. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod n

let float t x =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  (* 53 random bits scaled to [0,1) *)
  v /. 9007199254740992.0 *. x

let bool t = Int64.logand (next_int64 t) 1L = 1L

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let exponential t mean =
  let u = float t 1.0 in
  -.mean *. log (1.0 -. u)

let split t = { state = next_int64 t }
