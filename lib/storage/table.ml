module Vec = Cdbs_util.Vec

type t = {
  schema : Schema.table;
  rows : Value.t array Vec.t;
  pk_index : (Value.t list, int) Hashtbl.t option;  (** pk values -> row idx *)
  pk_positions : int list;
  mutable bytes : int;  (** {!byte_size} once it has been asked for, else -1 *)
  mutable version : int;
}

let column_positions schema names =
  let cols = Schema.column_names schema in
  List.filter_map
    (fun name ->
      let rec find i = function
        | [] -> None
        | c :: _ when c = name -> Some i
        | _ :: rest -> find (i + 1) rest
      in
      find 0 cols)
    names

let create schema =
  let pk_positions = column_positions schema schema.Schema.primary_key in
  let pk_index =
    if pk_positions = [] then None else Some (Hashtbl.create 64)
  in
  {
    schema;
    rows = Vec.create ();
    pk_index;
    pk_positions;
    bytes = -1;
    version = 0;
  }

let schema t = t.schema
let row_count t = Vec.length t.rows
let version t = t.version
let primary_key_positions t = t.pk_positions

(* The index keys rows by [Value.key], so it pairs what [Value.equal] pairs. *)
let pk_of_row t row = List.map (fun i -> Value.key row.(i)) t.pk_positions

let row_bytes row = Array.fold_left (fun a v -> a + Value.byte_size v) 0 row

(* Keep a known byte count exact across a write. *)
let add_bytes t row sign =
  if t.bytes >= 0 then t.bytes <- t.bytes + (sign * row_bytes row)

let insert t row =
  if Array.length row <> List.length t.schema.Schema.columns then
    Error "insert: arity mismatch"
  else
    let i = Vec.length t.rows in
    let fresh =
      match t.pk_index with
      | None -> true
      | Some idx ->
          let key = pk_of_row t row in
          (not (Hashtbl.mem idx key))
          && (Hashtbl.add idx key i;
              true)
    in
    if not fresh then Error "insert: duplicate primary key"
    else begin
      Vec.push t.rows row;
      add_bytes t row 1;
      t.version <- t.version + 1;
      Ok ()
    end

let get t i = Vec.get t.rows i
let iter f t = Vec.iter f t.rows
let iteri f t = Vec.iteri f t.rows
let fold f init t = Vec.fold_left f init t.rows

let position_of_pk t key =
  match t.pk_index with
  | None -> None
  | Some idx -> Hashtbl.find_opt idx (List.map Value.key key)

(* A changed row's new key may be held only by a row that is changing
   too, and no two changed rows may share one. *)
let duplicates_key t changes =
  match t.pk_index with
  | None -> false
  | Some idx ->
      let changing = Hashtbl.create 8 and fresh = Hashtbl.create 8 in
      List.iter (fun (i, _) -> Hashtbl.replace changing i ()) changes;
      List.exists
        (fun (_, row) ->
          let key = pk_of_row t row in
          (match Hashtbl.find_opt idx key with
          | Some j -> not (Hashtbl.mem changing j)
          | None -> false)
          || Hashtbl.mem fresh key
          || (Hashtbl.add fresh key ();
              false))
        changes

(* Only the entries of changed keys and values move: old ones out first,
   then new ones in, so that rows may trade keys. *)
let replace t changes =
  if duplicates_key t changes then Error "update: duplicate primary key"
  else begin
    let moved =
      List.map (fun (i, row) -> (i, Vec.get t.rows i, row)) changes
    in
    (match t.pk_index with
    | None -> ()
    | Some idx ->
        let rekeyed =
          List.filter_map
            (fun (i, old, row) ->
              let key = pk_of_row t row in
              if compare (pk_of_row t old) key = 0 then None
              else begin
                Hashtbl.remove idx (pk_of_row t old);
                Some (key, i)
              end)
            moved
        in
        List.iter (fun (key, i) -> Hashtbl.replace idx key i) rekeyed);
    List.iter
      (fun (i, old, row) ->
        Vec.set t.rows i row;
        add_bytes t old (-1);
        add_bytes t row 1)
      moved;
    if changes <> [] then t.version <- t.version + 1;
    Ok ()
  end

(* Rows before the first deleted one keep their positions and their index
   entries; the rows after it move down and are indexed again. *)
let delete t positions =
  match positions with
  | [] -> ()
  | first :: _ ->
      let n = Vec.length t.rows in
      let doomed = Array.make (n - first) false in
      List.iter (fun i -> doomed.(i - first) <- true) positions;
      for i = first to n - 1 do
        let row = Vec.get t.rows i in
        Option.iter (fun idx -> Hashtbl.remove idx (pk_of_row t row)) t.pk_index;
        if doomed.(i - first) then add_bytes t row (-1)
      done;
      let kept = ref first in
      for i = first to n - 1 do
        if not doomed.(i - first) then begin
          let row = Vec.get t.rows i in
          Vec.set t.rows !kept row;
          Option.iter (fun idx -> Hashtbl.replace idx (pk_of_row t row) !kept) t.pk_index;
          incr kept
        end
      done;
      Vec.truncate t.rows !kept;
      t.version <- t.version + 1

let byte_size t =
  if t.bytes < 0 then t.bytes <- fold (fun acc row -> acc + row_bytes row) 0 t;
  t.bytes

let column_index t name =
  let rec find i = function
    | [] -> None
    | c :: _ when c.Schema.col_name = name -> Some i
    | _ :: rest -> find (i + 1) rest
  in
  find 0 t.schema.Schema.columns
