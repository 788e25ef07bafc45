type kind =
  | Table of string
  | Column of { table : string; column : string }
  | Range of { table : string; column : string; lo : float; hi : float }

type t = {
  kind : kind;
  size : float;
}

let table name ~size = { kind = Table name; size }

let range table column ~lo ~hi ~size =
  { kind = Range { table; column; lo; hi }; size }

let name t =
  match t.kind with
  | Table n -> n
  | Column { table; column } -> table ^ "." ^ column
  | Range { table; column; lo; hi } ->
      Fmt.str "%s.%s[%g,%g)" table column lo hi

(* The order Stdlib.compare gives the kind: constructors as declared, then
   fields left to right. *)
let compare_kind a b =
  match (a, b) with
  | Table x, Table y -> String.compare x y
  | Table _, _ -> -1
  | _, Table _ -> 1
  | Column x, Column y ->
      let c = String.compare x.table y.table in
      if c <> 0 then c else String.compare x.column y.column
  | Column _, _ -> -1
  | _, Column _ -> 1
  | Range x, Range y ->
      let c = String.compare x.table y.table in
      if c <> 0 then c
      else
        let c = String.compare x.column y.column in
        if c <> 0 then c
        else
          let c = Float.compare x.lo y.lo in
          if c <> 0 then c else Float.compare x.hi y.hi

let compare a b = compare_kind a.kind b.kind
let equal a b = compare a b = 0
let pp ppf t = Fmt.pf ppf "%s(%.2f)" (name t) t.size

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

let set_size s = Set.fold (fun f acc -> acc +. f.size) s 0.

let of_footprint ~granularity ~size_of (fp : Cdbs_sql.Analyze.footprint) =
  match granularity with
  | `Table ->
      List.fold_left
        (fun acc tbl ->
          let kind = Table tbl in
          Set.add { kind; size = size_of kind } acc)
        Set.empty fp.Cdbs_sql.Analyze.tables
  | `Column ->
      List.fold_left
        (fun acc (table, column) ->
          if table = "?" then acc
          else
            let kind = Column { table; column } in
            Set.add { kind; size = size_of kind } acc)
        Set.empty fp.Cdbs_sql.Analyze.columns
