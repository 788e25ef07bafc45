type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }
let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let set t i v =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: index out of bounds";
  t.data.(i) <- v

let grow t v =
  let cap = Array.length t.data in
  let ncap = if cap = 0 then 8 else 2 * cap in
  let ndata = Array.make ncap v in
  Array.blit t.data 0 ndata 0 t.len;
  t.data <- ndata

let push t v =
  if t.len = Array.length t.data then grow t v;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then None
  else begin
    t.len <- t.len - 1;
    Some t.data.(t.len)
  end

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t = List.init t.len (fun i -> t.data.(i))
let to_array t = Array.sub t.data 0 t.len
let copy t = { data = to_array t; len = t.len }

let clear t = t.len <- 0

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Vec.truncate: length out of bounds";
  t.len <- n

let filter_in_place p t =
  let keep = ref 0 in
  for i = 0 to t.len - 1 do
    if p t.data.(i) then begin
      t.data.(!keep) <- t.data.(i);
      incr keep
    end
  done;
  t.len <- !keep
