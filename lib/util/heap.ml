type 'a t = {
  mutable times : float array;
  mutable ranks : int array;
  mutable seqs : int array;
  mutable vals : 'a option array;
      (* [None] above [len]; avoids retaining popped payloads *)
  mutable len : int;
  mutable next_seq : int;
}

let capacity = 256

let create () =
  {
    times = Array.make capacity 0.;
    ranks = Array.make capacity 0;
    seqs = Array.make capacity 0;
    vals = Array.make capacity None;
    len = 0;
    next_seq = 0;
  }

(* Strict "entry i orders before entry j". *)
let before t i j =
  let c = Float.compare t.times.(i) t.times.(j) in
  if c <> 0 then c < 0
  else
    let c = Int.compare t.ranks.(i) t.ranks.(j) in
    if c <> 0 then c < 0 else t.seqs.(i) < t.seqs.(j)

let swap t i j =
  let tm = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- tm;
  let r = t.ranks.(i) in
  t.ranks.(i) <- t.ranks.(j);
  t.ranks.(j) <- r;
  let s = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- s;
  let v = t.vals.(i) in
  t.vals.(i) <- t.vals.(j);
  t.vals.(j) <- v

let grow t =
  let cap = Array.length t.times in
  let cap' = 2 * cap in
  let times = Array.make cap' 0. in
  Array.blit t.times 0 times 0 cap;
  t.times <- times;
  let ranks = Array.make cap' 0 in
  Array.blit t.ranks 0 ranks 0 cap;
  t.ranks <- ranks;
  let seqs = Array.make cap' 0 in
  Array.blit t.seqs 0 seqs 0 cap;
  t.seqs <- seqs;
  let vals = Array.make cap' None in
  Array.blit t.vals 0 vals 0 cap;
  t.vals <- vals

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.len then begin
    let r = l + 1 in
    let smallest = if r < t.len && before t r l then r else l in
    if before t smallest i then begin
      swap t i smallest;
      sift_down t smallest
    end
  end

let add t ~time ?(rank = 0) v =
  if t.len = Array.length t.times then grow t;
  let i = t.len in
  t.times.(i) <- time;
  t.ranks.(i) <- rank;
  t.seqs.(i) <- t.next_seq;
  t.vals.(i) <- Some v;
  t.next_seq <- t.next_seq + 1;
  t.len <- t.len + 1;
  sift_up t i

let pop_timed t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) in
    let v = match t.vals.(0) with Some v -> v | None -> assert false in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      swap t 0 t.len;
      t.vals.(t.len) <- None;
      sift_down t 0
    end
    else t.vals.(0) <- None;
    Some (time, v)
  end

let rec drain_until t ~time ~f =
  if t.len > 0 && Float.compare t.times.(0) time <= 0 then
    match pop_timed t with
    | Some (at, v) ->
        f at v;
        drain_until t ~time ~f
    | None -> ()
