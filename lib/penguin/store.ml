open Relational
open Structural
open Viewobject

let ( let* ) = Result.bind

let atom = Sexp.atom
let l = Sexp.list

let map_m f items =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match f x with Ok y -> go (y :: acc) rest | Error _ as e -> e)
  in
  go [] items

(* --- values ---------------------------------------------------------- *)

let value_to_sexp = function
  | Value.Null -> atom "null"
  | Value.Int i -> l [ atom "int"; atom (string_of_int i) ]
  | Value.Float f -> l [ atom "float"; atom (Value.float_to_string f) ]
  | Value.Str s -> l [ atom "str"; atom s ]
  | Value.Bool b -> l [ atom "bool"; atom (string_of_bool b) ]

(* --- schemas and connections ----------------------------------------- *)

let schema_to_sexp (s : Schema.t) =
  l
    [ atom "schema"; atom s.Schema.name;
      l
        (atom "attrs"
        :: List.map
             (fun (a : Attribute.t) ->
               l [ atom a.Attribute.name; atom (Value.domain_name a.Attribute.domain) ])
             s.Schema.attributes);
      l (atom "key" :: List.map atom s.Schema.key) ]

let schema_of_sexp e =
  let* items = Sexp.as_list e in
  match items with
  | Sexp.Atom "schema" :: Sexp.Atom name :: rest ->
      let* attrs = Sexp.keyed "attrs" rest in
      let* attributes =
        map_m
          (fun a ->
            match a with
            | Sexp.List [ Sexp.Atom n; Sexp.Atom d ] -> (
                match Value.domain_of_name d with
                | Some dom -> Ok (Attribute.make n dom)
                | None -> Error (Fmt.str "store: unknown domain %s" d))
            | _ -> Error "store: bad attribute")
          attrs
      in
      let* key_items = Sexp.keyed "key" rest in
      let* key = map_m Sexp.as_atom key_items in
      Schema.make ~name ~attributes ~key
  | _ -> Error "store: bad schema"

let connection_to_sexp (c : Connection.t) =
  l
    [ atom "connection"; atom (Connection.kind_name c.Connection.kind);
      atom c.Connection.source; atom c.Connection.target;
      l
        [ atom "on";
          l (List.map atom c.Connection.source_attrs);
          l (List.map atom c.Connection.target_attrs) ] ]

let connection_of_sexp e =
  let* items = Sexp.as_list e in
  match items with
  | [ Sexp.Atom "connection"; Sexp.Atom kind; Sexp.Atom source;
      Sexp.Atom target;
      Sexp.List [ Sexp.Atom "on"; Sexp.List xs1; Sexp.List xs2 ] ] ->
      let* kind =
        match kind with
        | "ownership" -> Ok Connection.Ownership
        | "reference" -> Ok Connection.Reference
        | "subset" -> Ok Connection.Subset
        | k -> Error (Fmt.str "store: unknown connection kind %s" k)
      in
      let* source_attrs = map_m Sexp.as_atom xs1 in
      let* target_attrs = map_m Sexp.as_atom xs2 in
      Ok (Connection.make ~kind ~source ~target ~source_attrs ~target_attrs)
  | _ -> Error "store: bad connection"

(* --- definitions ------------------------------------------------------ *)

let edge_to_sexp (e : Schema_graph.edge) =
  l
    [ atom "edge";
      atom (if e.Schema_graph.forward then "forward" else "inverse");
      atom (Connection.id e.Schema_graph.conn) ]

let edge_of_sexp g e =
  let* items = Sexp.as_list e in
  match items with
  | [ Sexp.Atom "edge"; Sexp.Atom dir; Sexp.Atom cid ] ->
      let* forward =
        match dir with
        | "forward" -> Ok true
        | "inverse" -> Ok false
        | d -> Error (Fmt.str "store: bad edge direction %s" d)
      in
      (match
         List.find_opt
           (fun c -> Connection.id c = cid)
           (Schema_graph.connections g)
       with
      | Some conn -> Ok { Schema_graph.conn; forward }
      | None -> Error (Fmt.str "store: unknown connection %s" cid))
  | _ -> Error "store: bad edge"

let rec node_to_sexp (n : Definition.node) =
  l
    [ atom "node"; atom n.Definition.label; atom n.Definition.relation;
      l (atom "attrs" :: List.map atom n.Definition.attrs);
      l (atom "path" :: List.map edge_to_sexp n.Definition.path);
      l (atom "children" :: List.map node_to_sexp n.Definition.children) ]

let rec node_of_sexp g e =
  let* items = Sexp.as_list e in
  match items with
  | Sexp.Atom "node" :: Sexp.Atom label :: Sexp.Atom relation :: rest ->
      let* attr_items = Sexp.keyed "attrs" rest in
      let* attrs = map_m Sexp.as_atom attr_items in
      let* path_items = Sexp.keyed "path" rest in
      let* path = map_m (edge_of_sexp g) path_items in
      let* child_items = Sexp.keyed "children" rest in
      let* children = map_m (node_of_sexp g) child_items in
      Ok (Definition.node ~label ~relation ~attrs ~path ~children)
  | _ -> Error "store: bad definition node"

let definition_to_sexp (vo : Definition.t) =
  l
    [ atom "object"; atom vo.Definition.name; atom vo.Definition.pivot;
      node_to_sexp vo.Definition.root ]

let definition_of_sexp g e =
  let* items = Sexp.as_list e in
  match items with
  | [ Sexp.Atom "object"; Sexp.Atom name; Sexp.Atom pivot; node ] ->
      let* root = node_of_sexp g node in
      Definition.make g ~name ~pivot ~root
  | _ -> Error "store: bad object definition"

(* --- translators ------------------------------------------------------ *)

let bool_atom b = atom (string_of_bool b)

let bool_of_sexp e =
  let* a = Sexp.as_atom e in
  match bool_of_string_opt a with
  | Some b -> Ok b
  | None -> Error (Fmt.str "store: bad bool %s" a)

let action_to_sexp = function
  | Integrity.Nullify -> atom "nullify"
  | Integrity.Delete_referencing -> atom "delete-referencing"
  | Integrity.Restrict -> atom "restrict"

let action_of_sexp e =
  let* a = Sexp.as_atom e in
  match a with
  | "nullify" -> Ok Integrity.Nullify
  | "delete-referencing" -> Ok Integrity.Delete_referencing
  | "restrict" -> Ok Integrity.Restrict
  | s -> Error (Fmt.str "store: bad reference action %s" s)

let key_policy_to_sexp (p : Vo_core.Translator_spec.key_policy) =
  l
    [ bool_atom p.Vo_core.Translator_spec.allow_vo_key_change;
      bool_atom p.Vo_core.Translator_spec.allow_db_key_replace;
      bool_atom p.Vo_core.Translator_spec.allow_merge_with_existing ]

let key_policy_of_sexp e =
  let* items = Sexp.as_list e in
  match items with
  | [ a; b; c ] ->
      let* allow_vo_key_change = bool_of_sexp a in
      let* allow_db_key_replace = bool_of_sexp b in
      let* allow_merge_with_existing = bool_of_sexp c in
      Ok
        {
          Vo_core.Translator_spec.allow_vo_key_change;
          allow_db_key_replace;
          allow_merge_with_existing;
        }
  | _ -> Error "store: bad key policy"

let mod_policy_to_sexp (p : Vo_core.Translator_spec.modification_policy) =
  l
    [ bool_atom p.Vo_core.Translator_spec.modifiable;
      bool_atom p.Vo_core.Translator_spec.allow_insert;
      bool_atom p.Vo_core.Translator_spec.allow_modify ]

let mod_policy_of_sexp e =
  let* items = Sexp.as_list e in
  match items with
  | [ a; b; c ] ->
      let* modifiable = bool_of_sexp a in
      let* allow_insert = bool_of_sexp b in
      let* allow_modify = bool_of_sexp c in
      Ok { Vo_core.Translator_spec.modifiable; allow_insert; allow_modify }
  | _ -> Error "store: bad modification policy"

let translator_to_sexp (spec : Vo_core.Translator_spec.t) =
  let open Vo_core.Translator_spec in
  l
    [ atom "translator"; atom spec.object_name;
      l [ atom "insertion"; bool_atom spec.allow_insertion ];
      l [ atom "deletion"; bool_atom spec.allow_deletion ];
      l [ atom "replacement"; bool_atom spec.allow_replacement ];
      l
        (atom "island-keys"
        :: List.map
             (fun (rel, p) -> l [ atom rel; key_policy_to_sexp p ])
             spec.island_keys);
      l
        (atom "outside"
        :: List.map
             (fun (rel, p) -> l [ atom rel; mod_policy_to_sexp p ])
             spec.outside);
      l
        (atom "reference-actions"
        :: List.map
             (fun (cid, a) -> l [ atom cid; action_to_sexp a ])
             spec.reference_actions);
      l [ atom "default-outside"; mod_policy_to_sexp spec.default_outside ];
      l
        [ atom "default-reference-action";
          action_to_sexp spec.default_reference_action ] ]

let translator_of_sexp e =
  let* items = Sexp.as_list e in
  match items with
  | Sexp.Atom "translator" :: Sexp.Atom object_name :: rest ->
      let flag name =
        let* f = Sexp.keyed name rest in
        match f with
        | [ b ] -> bool_of_sexp b
        | _ -> Error (Fmt.str "store: bad %s flag" name)
      in
      let* allow_insertion = flag "insertion" in
      let* allow_deletion = flag "deletion" in
      let* allow_replacement = flag "replacement" in
      let pair_list name decode =
        let* entries = Sexp.keyed name rest in
        map_m
          (fun entry ->
            let* items = Sexp.as_list entry in
            match items with
            | [ Sexp.Atom k; v ] ->
                let* v = decode v in
                Ok (k, v)
            | _ -> Error (Fmt.str "store: bad %s entry" name))
          entries
      in
      let* island_keys = pair_list "island-keys" key_policy_of_sexp in
      let* outside = pair_list "outside" mod_policy_of_sexp in
      let* reference_actions = pair_list "reference-actions" action_of_sexp in
      let* default_outside =
        let* f = Sexp.keyed "default-outside" rest in
        match f with
        | [ p ] -> mod_policy_of_sexp p
        | _ -> Error "store: bad default-outside"
      in
      let* default_reference_action =
        let* f = Sexp.keyed "default-reference-action" rest in
        match f with
        | [ a ] -> action_of_sexp a
        | _ -> Error "store: bad default-reference-action"
      in
      Ok
        {
          Vo_core.Translator_spec.object_name;
          allow_insertion;
          allow_deletion;
          allow_replacement;
          island_keys;
          outside;
          reference_actions;
          default_outside;
          default_reference_action;
        }
  | _ -> Error "store: bad translator"

(* --- instances --------------------------------------------------------- *)

let tuple_to_sexp t =
  l
    (atom "row"
    :: List.map
         (fun (a, v) -> l [ atom a; value_to_sexp v ])
         (Tuple.bindings t))

let rec instance_to_sexp (i : Instance.t) =
  l
    [ atom "instance"; atom i.Instance.label; atom i.Instance.relation;
      tuple_to_sexp i.Instance.tuple;
      l
        (atom "children"
        :: List.map
             (fun (label, subs) ->
               l (atom label :: List.map instance_to_sexp subs))
             i.Instance.children) ]

(* --- the row reader ------------------------------------------------------ *)

(* Rows, values and instances are read token by token from the input
   ({!Sexp.Lexer}), never as a tree. Each reader is given the first token
   of its expression and consumes all of it, also when it fails.

   A value or a row is first read plainly, as the writer prints it. The
   plain reader gives up on anything else, and the expression is read
   again from its first token by a checking reader, which refuses it
   with the message the tree decoders gave, shape before contents. *)

module L = Sexp.Lexer

let tagged_int s =
  match int_of_string_opt s with
  | Some i -> Ok (Value.Int i)
  | None -> Error (Fmt.str "store: bad int %s" s)

let tagged_float s =
  match float_of_string_opt s with
  | Some f -> Ok (Value.Float f)
  | None -> Error (Fmt.str "store: bad float %s" s)

let tagged_str s = Ok (Value.Str s)

let tagged_bool s =
  match bool_of_string_opt s with
  | Some b -> Ok (Value.Bool b)
  | None -> Error (Fmt.str "store: bad bool %s" s)

let tagged t =
  if L.is t "str" then Some tagged_str
  else if L.is t "int" then Some tagged_int
  else if L.is t "float" then Some tagged_float
  else if L.is t "bool" then Some tagged_bool
  else None

(* The plain readers give up by raising [Unusual]. *)
exception Unusual

let plain_atom t = match L.next t with L.Atom -> () | _ -> raise Unusual
let plain_close t = match L.next t with L.Close -> () | _ -> raise Unusual

let payload t =
  plain_atom t;
  L.text t

let parsed = function Some v -> v | None -> raise Unusual

(* [null] or [(TAG ATOM)] with a well-formed payload. *)
let plain_value t tok =
  match tok with
  | L.Atom when L.is t "null" -> Value.Null
  | L.Open ->
      plain_atom t;
      let v =
        if L.is t "str" then Value.Str (payload t)
        else if L.is t "int" then Value.Int (parsed (int_of_string_opt (payload t)))
        else if L.is t "float" then Value.Float (parsed (float_of_string_opt (payload t)))
        else if L.is t "bool" then Value.Bool (parsed (bool_of_string_opt (payload t)))
        else raise Unusual
      in
      plain_close t;
      v
  | _ -> raise Unusual

let checked_value t tok =
  let bad_value e = Error (Fmt.str "store: bad value %s" (Sexp.to_string e)) in
  match tok with
  | L.Atom -> if L.is t "null" then Ok Value.Null else bad_value (Sexp.Atom (L.text t))
  | _ -> (
      let m = L.mark t in
      let decode =
        match L.next t with
        | L.Atom -> (
            match tagged t with
            | Some decode -> (
                match L.next t with
                | L.Atom -> (
                    let payload = L.text t in
                    match L.next t with L.Close -> Some (decode payload) | _ -> None)
                | _ -> None)
            | None -> None)
        | _ -> None
      in
      match decode with
      | Some result -> result
      | None ->
          L.reset t m;
          bad_value (L.read t))

(* [plain], or, if it gives up, [checked] from the same first token. *)
let plain_or_checked plain checked t tok =
  let m = L.mark t in
  match plain t tok with
  | v -> Ok v
  | exception Unusual ->
      L.reset t m;
      checked t (L.next t)

let read_value = plain_or_checked plain_value checked_value

let read_binding t tok =
  match tok with
  | L.Atom -> L.not_a_list t
  | _ ->
      L.shaped t ~bad:"store: bad binding" (fun () ->
          let a = L.want_text t in
          let v = read_value t (L.elem t) in
          L.want_close t;
          Result.map (fun v -> a, v) v)

let rec plain_bindings t tuple =
  match L.next t with
  | L.Close -> tuple
  | L.Open ->
      plain_atom t;
      let a = L.intern t in
      let v = plain_value t (L.next t) in
      plain_close t;
      plain_bindings t (Tuple.set tuple a v)
  | _ -> raise Unusual

let plain_row t tok =
  match tok with
  | L.Open -> (
      match L.next t with
      | L.Atom when L.is t "row" -> plain_bindings t Tuple.empty
      | _ -> raise Unusual)
  | _ -> raise Unusual

let checked_row t tok =
  match tok with
  | L.Atom -> L.not_a_list t
  | _ ->
      L.shaped t ~bad:"store: bad row" (fun () ->
          L.want t "row";
          Result.map Tuple.make (L.elements t read_binding))

let read_row = plain_or_checked plain_row checked_row

let rec read_instance t tok =
  match tok with
  | L.Atom -> L.not_a_list t
  | _ ->
      L.shaped t ~bad:"store: bad instance" (fun () ->
          L.want t "instance";
          let label = L.want_text t in
          let relation = L.want_text t in
          let tuple = read_row t (L.elem t) in
          L.want_open t;
          L.want t "children";
          let children = L.elements t read_child_group in
          L.want_close t;
          let* tuple = tuple in
          let* children = children in
          Ok (Instance.make ~label ~relation ~tuple ~children))

and read_child_group t tok =
  match tok with
  | L.Atom -> L.not_a_list t
  | _ ->
      L.shaped t ~bad:"store: bad child group" (fun () ->
          let label = L.want_text t in
          Result.map (fun subs -> label, subs) (L.elements t read_instance))

let instance_of_string input = Sexp.decode input read_instance

(* --- the snapshot writer ------------------------------------------------ *)

(* The document's layout: each top-level element on its own line at
   indent 1, each item of a section (a schema, a connection, an object, a
   translator, a relation) on its own line at indent 2, and each data row
   on its own line at indent 3. Items and rows are printed flat. The data
   section is written straight from the relations, without building its
   tree. *)

let newline buf indent =
  Buffer.add_char buf '\n';
  for _ = 1 to indent do Buffer.add_char buf ' ' done

(* A value as [value_to_sexp] prints it: [null] or [(TAG ATOM)]. *)
let add_value buf v =
  let tagged tag s =
    Buffer.add_char buf '(';
    Buffer.add_string buf tag;
    Buffer.add_char buf ' ';
    Sexp.add_atom buf s;
    Buffer.add_char buf ')'
  in
  match v with
  | Value.Null -> Buffer.add_string buf "null"
  | Value.Int i -> tagged "int" (string_of_int i)
  | Value.Float f -> tagged "float" (Value.float_to_string f)
  | Value.Str s -> tagged "str" s
  | Value.Bool b -> tagged "bool" (string_of_bool b)

let add_row buf t =
  Buffer.add_string buf "(row";
  Tuple.iter
    (fun a v ->
      Buffer.add_string buf " (";
      Sexp.add_atom buf a;
      Buffer.add_char buf ' ';
      add_value buf v;
      Buffer.add_char buf ')')
    t;
  Buffer.add_char buf ')'

(* The document up to its data section, without the closing parenthesis. *)
let add_header buf ~epoch (ws : Workspace.t) =
  let g = ws.Workspace.graph in
  let element e =
    newline buf 1;
    Buffer.add_string buf (Sexp.to_string e)
  in
  let section name items =
    newline buf 1;
    Buffer.add_char buf '(';
    Buffer.add_string buf name;
    List.iter
      (fun e ->
        newline buf 2;
        Buffer.add_string buf (Sexp.to_string e))
      items;
    Buffer.add_char buf ')'
  in
  let number field n = l [ atom field; atom (string_of_int n) ] in
  Buffer.add_string buf "(penguin-workspace";
  element (number "version" (Workspace.version ws));
  if epoch <> 0 then element (number "epoch" epoch);
  section "schemas"
    (List.map (fun n -> schema_to_sexp (Schema_graph.schema_exn g n))
       (Schema_graph.relations g));
  section "connections" (List.map connection_to_sexp (Schema_graph.connections g));
  section "objects"
    (List.map (fun (_, vo) -> definition_to_sexp vo) ws.Workspace.objects);
  section "translators"
    (List.map (fun (_, spec) -> translator_to_sexp spec) ws.Workspace.translators)

let save ?(include_data = true) ?(epoch = 0) (ws : Workspace.t) =
  let db = ws.Workspace.db in
  let buf =
    Buffer.create (4096 + if include_data then 80 * Database.total_tuples db else 0)
  in
  add_header buf ~epoch ws;
  if include_data then begin
    newline buf 1;
    Buffer.add_string buf "(data";
    List.iter
      (fun name ->
        let r = Database.relation_exn db name in
        newline buf 2;
        Buffer.add_string buf "(relation ";
        Sexp.add_atom buf (Relation.name r);
        Relation.iter
          (fun row ->
            newline buf 3;
            add_row buf row)
          r;
        Buffer.add_char buf ')')
      (Database.relation_names db);
    Buffer.add_char buf ')'
  end;
  Buffer.add_string buf ")\n";
  Buffer.contents buf

(* --- the snapshot reader --------------------------------------------------- *)

(* The document is read in one pass. The header sections are small and
   are read as trees; the data section is read by the row reader, each
   relation item into its rows (or the error that stopped them). The
   relations are built afterwards, in file order, once the header has
   given their schemas — so the header's errors come first, as a tree
   reader checking the header before the data reports them. *)

let read_relation t tok =
  match tok with
  | L.Atom -> L.not_a_list t
  | _ ->
      L.shaped t ~bad:"store: bad relation data" (fun () ->
          L.want t "relation";
          let name = L.want_text t in
          Result.map (fun rows -> name, rows) (L.elements t read_row))

(* The document's top-level sections: the header's as trees, and each
   data section's relation items. *)
let read_document t tok =
  match tok with
  | L.Atom -> L.not_a_list t
  | _ ->
      L.shaped t ~bad:"store: not a penguin-workspace document" (fun () ->
          L.want t "penguin-workspace";
          let rec sections header data =
            match L.next t with
            | L.Close -> Ok (List.rev header, data)
            | L.Open -> (
                let m = L.mark t in
                match L.next t with
                | L.Atom when L.is t "data" ->
                    (* Each item keeps its own result: reading them never fails. *)
                    let items = L.elements t (fun t tok -> Ok (read_relation t tok)) in
                    sections header (Result.get_ok items :: data)
                | _ ->
                    L.reset t m;
                    sections (L.read t :: header) data)
            | _ -> sections header data
          in
          sections [] [])

let decode_workspace rest data =
  let* schema_items = Sexp.keyed "schemas" rest in
  let* schemas = map_m schema_of_sexp schema_items in
  let* conn_items = Sexp.keyed "connections" rest in
  let* conns = map_m connection_of_sexp conn_items in
  let* graph = Schema_graph.make schemas conns in
  let ws = Workspace.create graph in
  let* object_items = Sexp.keyed "objects" rest in
  let* objects =
    map_m
      (fun e ->
        let* vo = definition_of_sexp graph e in
        Ok (vo.Definition.name, vo))
      object_items
  in
  let* translator_items = Sexp.keyed "translators" rest in
  let* translators =
    map_m
      (fun e ->
        let* spec = translator_of_sexp e in
        Ok (spec.Vo_core.Translator_spec.object_name, spec))
      translator_items
  in
  let* () =
    match
      List.find_opt (fun (name, _) -> not (List.mem_assoc name translators)) objects
    with
    | Some (name, _) -> Error (Fmt.str "store: object %s has no translator" name)
    | None -> Ok ()
  in
  let* relation_items =
    match data with
    | [] -> Ok []
    | [ items ] -> Ok items
    | _ -> Error "sexp: duplicate (data ...)"
  in
  let* db =
    List.fold_left
      (fun acc item ->
        let* db = acc in
        let* name, ts = item in
        Result.map_error Database.error_to_string
          (Database.with_relation db name (fun r -> Relation.insert_all r ts)))
      (Ok ws.Workspace.db) relation_items
  in
  let number field =
    match Sexp.keyed_opt field rest with
    | None -> Ok None
    | Some [ Sexp.Atom v ] -> (
        match int_of_string_opt v with
        | Some v when v >= 0 -> Ok (Some v)
        | _ -> Error (Fmt.str "store: bad %s %s" field v))
    | Some _ -> Error (Fmt.str "store: bad %s" field)
  in
  let* version = number "version" in
  let* epoch = number "epoch" in
  let log = Option.fold ~none:Commit_log.empty ~some:Commit_log.of_version version in
  Ok ({ ws with Workspace.db; objects; translators; log }, Option.value epoch ~default:0)

let load_snapshot input =
  Sexp.decode input (fun t tok ->
      let* header, data = read_document t tok in
      decode_workspace header data)

let load input = Result.map fst (load_snapshot input)

let save_file ?include_data ?(io = Fsio.default) ws path =
  (* Crash-safe: a failure (or a crash) mid-save must never corrupt the
     previous workspace file — the write lands in a tmp file that is
     fsynced and renamed over the target only once complete. *)
  Fsio.atomic_write io ~path (save ?include_data ws)

let load_file path =
  match Fsio.default.read path with
  | Ok (Some content) -> load content
  | Ok None -> Error (Fmt.str "%s: no such file" path)
  | Error e -> Error (Error.to_string e)
