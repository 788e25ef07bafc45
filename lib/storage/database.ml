type t = {
  schema : Schema.t;
  tables : (string, Table.t) Hashtbl.t;
}

let create_partial (schema : Schema.t) ~tables =
  let t = { schema; tables = Hashtbl.create 16 } in
  List.iter
    (fun name ->
      match Schema.find_table schema name with
      | Some tbl_schema ->
          Hashtbl.replace t.tables name (Table.create tbl_schema)
      | None -> invalid_arg ("Database.create_partial: unknown table " ^ name))
    tables;
  t

let create schema =
  create_partial schema ~tables:(List.map (fun tb -> tb.Schema.tbl_name) schema)

let table t name = Hashtbl.find_opt t.tables name

let table_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tables []
  |> List.sort String.compare

let insert t name row =
  match table t name with
  | None -> Error ("insert: no table " ^ name)
  | Some tbl -> Table.insert tbl row

let install_table ~src ~dst name =
  match table src name with
  | None -> Error ("install: source lacks table " ^ name)
  | Some s -> (
      match Schema.find_table dst.schema name with
      | None -> Error ("install: table not in destination schema " ^ name)
      | Some tbl_schema ->
          let fresh = Table.create tbl_schema in
          let count = ref 0 in
          let error = ref None in
          Table.iter
            (fun row ->
              if !error = None then
                match Table.insert fresh (Array.copy row) with
                | Ok () -> incr count
                | Error e -> error := Some e)
            s;
          (match !error with
          | Some e -> Error e
          | None ->
              Hashtbl.replace dst.tables name fresh;
              Ok !count))

let drop_table t name = Hashtbl.remove t.tables name

let copy_table_into ~src ~dst name =
  match (table src name, table dst name) with
  | None, _ -> Error ("copy: source lacks table " ^ name)
  | _, None -> Error ("copy: destination lacks table " ^ name)
  | Some s, Some d ->
      let count = ref 0 in
      let error = ref None in
      Table.iter
        (fun row ->
          if !error = None then
            match Table.insert d (Array.copy row) with
            | Ok () -> incr count
            | Error e -> error := Some e)
        s;
      (match !error with Some e -> Error e | None -> Ok !count)
