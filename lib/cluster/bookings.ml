let update = -1
let catchup = -2

(* Slot [i] holds its floats at [4 i .. 4 i + 3] and its ints at
   [3 i .. 3 i + 2]. *)
let float_fields = 4
let int_fields = 3

type t = {
  mutable floats : Float.Array.t;  (* start, finish, service, mb *)
  mutable ints : int array;  (* owner, attempt, cls *)
  mutable head : int;  (* every booking before it is dead *)
  mutable tail : int;  (* one past the newest booking *)
}

let create () =
  { floats = Float.Array.create 0; ints = [||]; head = 0; tail = 0 }

(* The accessors are inlined so that the walks below read floats without
   boxing them. *)
let[@inline] start t i = Float.Array.get t.floats (float_fields * i)
let[@inline] finish t i = Float.Array.get t.floats ((float_fields * i) + 1)
let service t i = Float.Array.get t.floats ((float_fields * i) + 2)
let mb t i = Float.Array.get t.floats ((float_fields * i) + 3)
let[@inline] owner t i = t.ints.(int_fields * i)
let attempt t i = t.ints.((int_fields * i) + 1)
let cls t i = t.ints.((int_fields * i) + 2)
let[@inline] live t ~now i = finish t i > now

(* [Stdlib.max] on floats, without boxing them for a polymorphic
   comparison. *)
let[@inline] fmax (a : float) b = if a >= b then a else b

let cancel t i ~from_ =
  let refund = fmax 0. (finish t i -. fmax (start t i) from_) in
  Float.Array.set t.floats ((float_fields * i) + 1) neg_infinity;
  refund

(* Skip the dead prefix; an emptied queue starts again at slot 0. *)
let advance t ~now =
  while t.head < t.tail && not (live t ~now t.head) do
    t.head <- t.head + 1
  done;
  if t.head = t.tail then begin
    t.head <- 0;
    t.tail <- 0
  end

(* A full queue keeps its live bookings, in order, from slot 0: in place
   when they fill less than half of it, else in arrays twice as large. *)
let make_room t ~now =
  let capacity = Array.length t.ints / int_fields in
  let n = ref 0 in
  for i = t.head to t.tail - 1 do
    if live t ~now i then incr n
  done;
  let floats, ints =
    if 2 * !n < capacity then (t.floats, t.ints)
    else
      let capacity = max 16 (2 * capacity) in
      ( Float.Array.create (float_fields * capacity),
        Array.make (int_fields * capacity) 0 )
  in
  let j = ref 0 in
  for i = t.head to t.tail - 1 do
    if live t ~now i then begin
      Float.Array.blit t.floats (float_fields * i) floats (float_fields * !j)
        float_fields;
      Array.blit t.ints (int_fields * i) ints (int_fields * !j) int_fields;
      incr j
    end
  done;
  t.floats <- floats;
  t.ints <- ints;
  t.head <- 0;
  t.tail <- !j

let push t ~now ~start ~finish ~service ~mb ~owner ~attempt ~cls =
  advance t ~now;
  if int_fields * t.tail = Array.length t.ints then make_room t ~now;
  let f = float_fields * t.tail and k = int_fields * t.tail in
  Float.Array.set t.floats f start;
  Float.Array.set t.floats (f + 1) finish;
  Float.Array.set t.floats (f + 2) service;
  Float.Array.set t.floats (f + 3) mb;
  t.ints.(k) <- owner;
  t.ints.(k + 1) <- attempt;
  t.ints.(k + 2) <- cls;
  t.tail <- t.tail + 1

let depth t ~now =
  advance t ~now;
  let d = ref 0 in
  for i = t.head to t.tail - 1 do
    if live t ~now i then incr d
  done;
  !d

let iter_live t ~now f =
  for i = t.tail - 1 downto t.head do
    if live t ~now i then f i
  done

let oldest_queued_read t ~now ~(arrival : float array) =
  let victim = ref (-1) in
  for i = t.tail - 1 downto t.head do
    let u = owner t i in
    if
      u >= 0 && start t i > now && live t ~now i
      && (!victim < 0 || not (arrival.(owner t !victim) <= arrival.(u)))
    then victim := i
  done;
  !victim

let find_live t ~now p =
  let i = ref (t.tail - 1) in
  while !i >= t.head && not (live t ~now !i && p !i) do
    decr i
  done;
  if !i < t.head then -1 else !i

let clear t =
  t.head <- 0;
  t.tail <- 0
