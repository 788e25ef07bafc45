type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Null

let of_literal : Cdbs_sql.Ast.literal -> t = function
  | Cdbs_sql.Ast.Int i -> Int i
  | Cdbs_sql.Ast.Float f -> Float f
  | Cdbs_sql.Ast.String s -> Str s
  | Cdbs_sql.Ast.Bool b -> Bool b
  | Cdbs_sql.Ast.Null -> Null

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ -> 3

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Bool _ | Str _ | Null -> None

let compare a b =
  match (a, b) with
  | Int x, Int y -> Stdlib.compare x y
  | (Int _ | Float _), (Int _ | Float _) ->
      Stdlib.compare (Option.get (to_float a)) (Option.get (to_float b))
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Stdlib.compare x y
  | Null, Null -> 0
  | _ -> Stdlib.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* Integers up to 2^53 in magnitude are exact as floats. *)
let key = function
  | Float f when Float.is_integer f && Float.abs f <= 0x1p53 -> Int (int_of_float f)
  | v -> v

let truthy = function
  | Bool b -> b
  | Int i -> i <> 0
  | Float f -> f <> 0.
  | Str _ | Null -> false

let arith f_int f_float a b =
  match (a, b) with
  | Int x, Int y -> Int (f_int x y)
  | (Int _ | Float _), (Int _ | Float _) ->
      Float (f_float (Option.get (to_float a)) (Option.get (to_float b)))
  | _ -> Null

let add = arith ( + ) ( +. )
let sub = arith ( - ) ( -. )
let mul = arith ( * ) ( *. )

let div a b =
  match (a, b) with
  | _, Int 0 | _, Float 0. -> Null
  | Int x, Int y -> Int (x / y)
  | (Int _ | Float _), (Int _ | Float _) ->
      Float (Option.get (to_float a) /. Option.get (to_float b))
  | _ -> Null

let byte_size = function
  | Int _ -> 8
  | Float _ -> 8
  | Bool _ -> 1
  | Null -> 1
  | Str s -> String.length s + 4

let pp ppf = function
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.float ppf f
  | Str s -> Fmt.pf ppf "%S" s
  | Bool b -> Fmt.bool ppf b
  | Null -> Fmt.string ppf "NULL"
