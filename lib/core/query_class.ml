type kind = Read | Update

type t = {
  id : string;
  kind : kind;
  fragments : Fragment.Set.t;
  weight : float;
}

let make id kind fragments ~weight =
  if weight < 0. then invalid_arg "Query_class: negative weight";
  { id; kind; fragments = Fragment.Set.of_list fragments; weight }

let read id fragments ~weight = make id Read fragments ~weight
let update id fragments ~weight = make id Update fragments ~weight
let size t = Fragment.set_size t.fragments

let overlaps a b = not (Fragment.Set.disjoint a.fragments b.fragments)

let is_update t = t.kind = Update
let pp ppf t =
  Fmt.pf ppf "%s[%s w=%.3f {%a}]" t.id
    (match t.kind with Read -> "R" | Update -> "U")
    t.weight
    Fmt.(list ~sep:comma string)
    (List.map Fragment.name (Fragment.Set.elements t.fragments))
