open Relational
open Viewobject
open Test_util

(* --- sexp ------------------------------------------------------------ *)

let sexp_testable = Alcotest.testable Sexp.pp Sexp.equal

let test_sexp_roundtrip () =
  let cases =
    [
      Sexp.Atom "hello";
      Sexp.Atom "with space";
      Sexp.Atom "";
      Sexp.Atom "quo\"te";
      Sexp.Atom "line\nbreak";
      Sexp.List [];
      Sexp.List [ Sexp.Atom "a"; Sexp.List [ Sexp.Atom "b"; Sexp.Atom "c" ] ];
    ]
  in
  List.iter
    (fun e ->
      let printed = Sexp.to_string e in
      Alcotest.check sexp_testable
        (Fmt.str "roundtrip %s" printed)
        e
        (check_ok (Sexp.parse printed)))
    cases

(* Atoms mix bare characters with every character that forces quoting
   or an escape, newlines included; some are long. *)
let sexp_gen =
  let open QCheck.Gen in
  let char =
    frequency
      [ 6, char_range 'a' 'z';
        1, oneofl [ ' '; '('; ')'; '"'; '\\'; '\n'; '\t'; '\r'; ';'; '\001' ] ]
  in
  let atom =
    frequency
      [ 8, string_size ~gen:char (int_bound 12);
        1, string_size ~gen:char (int_range 60 90) ]
  in
  sized_size (int_bound 40)
  @@ fix (fun self n ->
         if n <= 1 then map (fun s -> Sexp.Atom s) atom
         else
           frequency
             [ 1, map (fun s -> Sexp.Atom s) atom;
               3,
               list_size (int_bound 10) (self (n / 3))
               |> map (fun l -> Sexp.List l) ])

let prop_sexp_one_line =
  QCheck.Test.make ~name:"sexp one line, parses back" ~count:2000
    (QCheck.make ~print:Sexp.to_string sexp_gen)
    (fun e ->
      let printed = Sexp.to_string e in
      (not (String.contains printed '\n'))
      && Sexp.equal (check_ok (Sexp.parse printed)) e)

let test_sexp_parse () =
  Alcotest.check sexp_testable "comments skipped"
    (Sexp.List [ Sexp.Atom "a"; Sexp.Atom "b" ])
    (check_ok (Sexp.parse "; comment\n(a ; inline\n b)"));
  ignore (check_err (Sexp.parse "(unterminated"));
  ignore (check_err (Sexp.parse ")"));
  ignore (check_err (Sexp.parse "a b"));
  ignore (check_err (Sexp.parse ""));
  let many = check_ok (Sexp.parse_many "a (b c) d") in
  Alcotest.(check int) "three expressions" 3 (List.length many)

let test_sexp_keyed () =
  let items =
    [ Sexp.List [ Sexp.Atom "k"; Sexp.Atom "v" ];
      Sexp.List [ Sexp.Atom "other"; Sexp.Atom "x" ] ]
  in
  (match check_ok (Sexp.keyed "k" items) with
  | [ Sexp.Atom "v" ] -> ()
  | _ -> Alcotest.fail "bad keyed");
  check_err_contains ~sub:"missing" (Sexp.keyed "zz" items);
  check_err_contains ~sub:"duplicate"
    (Sexp.keyed "k" (items @ [ Sexp.List [ Sexp.Atom "k" ] ]))

(* --- values, instances ------------------------------------------------ *)

let test_value_roundtrip () =
  List.iter
    (fun v ->
      Alcotest.check value_testable
        (Fmt.str "value %a" Value.pp v)
        v
        (check_ok
           (Sexp.decode
              (Sexp.to_string (Penguin.Store.value_to_sexp v))
              Penguin.Store.read_value)))
    [ Value.Null; vi 42; vi (-1); vf 3.25; vf 33.333333333333336;
      vs "plain"; vs "with (parens) and \"quotes\""; vb true; vb false ]

let test_instance_roundtrip () =
  let db = Penguin.University.seeded_db () in
  let i = Penguin.University.cs345_instance db in
  let i' =
    check_ok
      (Penguin.Store.instance_of_string
         (Sexp.to_string (Penguin.Store.instance_to_sexp i)))
  in
  Alcotest.(check bool) "instance roundtrip" true (Instance.equal i i')

(* --- definitions, translators ----------------------------------------- *)

let test_definition_roundtrip () =
  let g = Penguin.University.graph in
  List.iter
    (fun vo ->
      let vo' =
        check_ok
          (Penguin.Store.definition_of_sexp g (Penguin.Store.definition_to_sexp vo))
      in
      Alcotest.(check string) "name" vo.Definition.name vo'.Definition.name;
      Alcotest.(check int) "complexity"
        (Definition.complexity vo)
        (Definition.complexity vo');
      Alcotest.(check string) "shape"
        (Definition.to_ascii vo)
        (Definition.to_ascii vo'))
    [ Penguin.University.omega; Penguin.University.omega_prime ]

let test_definition_wrong_graph () =
  (* omega refers to connections the CAD graph does not have *)
  check_err_contains ~sub:"unknown connection"
    (Penguin.Store.definition_of_sexp Penguin.Cad.graph
       (Penguin.Store.definition_to_sexp Penguin.University.omega))

let test_translator_roundtrip () =
  List.iter
    (fun spec ->
      let spec' =
        check_ok
          (Penguin.Store.translator_of_sexp (Penguin.Store.translator_to_sexp spec))
      in
      Alcotest.(check bool) "same translator" true (spec = spec'))
    [ Penguin.University.omega_translator;
      Penguin.University.omega_translator_restrictive;
      Penguin.Hospital.record_translator;
      Penguin.Cad.assembly_translator ]

(* --- workspaces -------------------------------------------------------- *)

let workspace_equal (a : Penguin.Workspace.t) (b : Penguin.Workspace.t) =
  Database.equal a.Penguin.Workspace.db b.Penguin.Workspace.db
  && List.map fst a.Penguin.Workspace.objects
     = List.map fst b.Penguin.Workspace.objects
  && List.for_all2
       (fun (_, v1) (_, v2) -> Definition.to_ascii v1 = Definition.to_ascii v2)
       a.Penguin.Workspace.objects b.Penguin.Workspace.objects
  && a.Penguin.Workspace.translators = b.Penguin.Workspace.translators

(* The document layout, printed from the tree: a broken list keeps its
   leading atoms on its first line and puts each list it holds on a line
   of its own, one column further in. The document breaks, and so does
   each of its elements; in the data section each relation breaks too.
   Everything else is printed flat. *)
let reference_layout doc =
  let buf = Buffer.create 4096 in
  let rec print ~levels indent e =
    match e with
    | Sexp.List items when levels > 0 ->
        let atoms, lists =
          List.partition (function Sexp.Atom _ -> true | Sexp.List _ -> false) items
        in
        Buffer.add_char buf '(';
        Buffer.add_string buf (String.concat " " (List.map Sexp.to_string atoms));
        List.iter
          (fun e ->
            Buffer.add_char buf '\n';
            Buffer.add_string buf (String.make (indent + 1) ' ');
            let levels =
              match e with
              | Sexp.List (Sexp.Atom "data" :: _) when indent = 0 -> 2
              | _ -> levels - 1
            in
            print ~levels (indent + 1) e)
          lists;
        Buffer.add_char buf ')'
    | e -> Buffer.add_string buf (Sexp.to_string e)
  in
  print ~levels:2 0 doc;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* The tree the snapshot writer writes: the definitions document,
   re-read as a tree, plus the data section built as a tree from
   [tuple_to_sexp] rows. *)
let document_tree ws =
  let header = check_ok (Sexp.parse (Penguin.Store.save ~include_data:false ws)) in
  let db = ws.Penguin.Workspace.db in
  let data =
    Sexp.List
      (Sexp.Atom "data"
      :: List.map
           (fun n ->
             let r = Database.relation_exn db n in
             Sexp.List
               (Sexp.Atom "relation" :: Sexp.Atom n
               :: List.map Penguin.Store.tuple_to_sexp (Relation.to_list r)))
           (Database.relation_names db))
  in
  match header with
  | Sexp.List items -> Sexp.List (items @ [ data ])
  | Sexp.Atom _ -> Alcotest.fail "header is not a list"

(* The snapshot writer against the tree it writes, printed by
   [reference_layout]. Output must match byte for byte. *)
let reference_save ws = reference_layout (document_tree ws)

(* Names and strings mix bare characters with every character that
   forces quoting or an escape; some strings are long, some empty. *)
let workspace_gen =
  let open QCheck.Gen in
  let char =
    frequency
      [ 8, char_range 'a' 'z';
        1, oneofl [ ' '; '('; ')'; '"'; '\\'; '\n'; '\t'; '\r'; ';'; '\001' ] ]
  in
  let str =
    frequency
      [ 2, return ""; 8, string_size ~gen:char (int_bound 8);
        2, string_size ~gen:char (int_range 30 80) ]
  in
  let name = string_size ~gen:char (int_range 1 10) in
  let value dom =
    match dom with
    | Value.DInt -> map (fun i -> Value.Int i) (int_range (-100000) 100000)
    | Value.DFloat ->
        map (fun f -> Value.Float f)
          (oneof [ float_range (-1e6) 1e6; oneofl [ 0.; -0.5; 1e-7; 3.25 ] ])
    | Value.DStr -> map (fun s -> Value.Str s) str
    | Value.DBool -> map (fun b -> Value.Bool b) bool
  in
  let relation i =
    let* names = list_size (int_range 1 6) name in
    let attrs = List.sort_uniq compare names in
    let* doms =
      flatten_l
        (List.map
           (fun _ -> oneofl [ Value.DInt; Value.DFloat; Value.DStr; Value.DBool ])
           attrs)
    in
    let cols = List.combine attrs doms in
    let key = fst (List.hd cols) in
    let row =
      flatten_l
        (List.mapi
           (fun j (a, d) ->
             let* v =
               if j = 0 then value d
               else frequency [ 1, return Value.Null; 4, value d ]
             in
             return (a, v))
           cols)
    in
    let* rows = list_size (int_bound 3) row in
    let* rname = name in
    let schema =
      Schema.make_exn
        ~name:(Fmt.str "%s%d" rname i)
        ~attributes:(List.map (fun (a, d) -> Attribute.make a d) cols)
        ~key:[ key ]
    in
    return (schema, List.map Tuple.make rows)
  in
  let* n = int_bound 4 in
  let* rels = flatten_l (List.init n relation) in
  let* version = oneof [ int_bound 9; int_bound 1_000_000 ] in
  let graph = Structural.Schema_graph.make_exn (List.map fst rels) [] in
  let ws = Penguin.Workspace.create graph in
  let db =
    List.fold_left
      (fun db (schema, rows) ->
        List.fold_left
          (fun db t ->
            match Database.insert db schema.Schema.name t with
            | Ok db -> db
            | Error _ -> db (* a repeated key: keep the first row *))
          db rows)
      ws.Penguin.Workspace.db rels
  in
  return
    { ws with
      Penguin.Workspace.db;
      log = Penguin.Commit_log.of_version version }

let prop_save_matches_reference_layout =
  QCheck.Test.make ~name:"snapshot writer matches the reference layout"
    ~count:500
    (QCheck.make ~print:reference_save workspace_gen)
    (fun ws ->
      let defs = Penguin.Store.save ~include_data:false ws in
      String.equal defs (reference_layout (check_ok (Sexp.parse defs)))
      && String.equal (Penguin.Store.save ws) (reference_save ws))

(* --- the streaming reader against the tree reader ------------------------ *)

(* The layout written before every document was printed one item per
   line: a list that does not fit in 72 columns breaks, its head on its
   first line and each further element on a line of its own. *)
let wrapped_layout e =
  let buf = Buffer.create 1024 in
  let rec print indent e =
    let flat = Sexp.to_string e in
    match e with
    | Sexp.List (head :: rest) when indent + String.length flat > 72 ->
        Buffer.add_char buf '(';
        Buffer.add_string buf (Sexp.to_string head);
        List.iter
          (fun e ->
            Buffer.add_char buf '\n';
            Buffer.add_string buf (String.make (indent + 1) ' ');
            print (indent + 1) e)
          rest;
        Buffer.add_char buf ')'
    | _ -> Buffer.add_string buf flat
  in
  print 0 e;
  Buffer.contents buf

let rec tree_size = function
  | Sexp.Atom _ -> 1
  | Sexp.List l -> List.fold_left (fun n e -> n + tree_size e) 1 l

(* The [k]-th node in pre-order, and the tree with it replaced. *)
let nth_node k e =
  let i = ref (-1) in
  let rec go e =
    incr i;
    if !i = k then Some e
    else match e with Sexp.Atom _ -> None | Sexp.List l -> List.find_map go l
  in
  Option.get (go e)

let replace_nth k r e =
  let i = ref (-1) in
  let rec go e =
    incr i;
    if !i = k then r
    else match e with Sexp.Atom _ -> e | Sexp.List l -> Sexp.List (List.map go l)
  in
  go e

(* One edit at a random node: another atom, an empty or wrapping list, a
   value of a wrong, unknown or malformed tag, or, in a list, an element
   dropped, repeated or moved. Repeated rows are duplicate keys; a value
   of the wrong domain, or [null] in a key, is a nonconforming row. *)
let mutation e =
  let open QCheck.Gen in
  let* k = int_bound (tree_size e - 1) in
  let node = nth_node k e in
  let tagged tag a = Sexp.List [ Sexp.Atom tag; Sexp.Atom a ] in
  let edits =
    [ 1, oneofl [ Sexp.Atom "x"; Sexp.Atom "null"; Sexp.Atom "" ];
      1, return (Sexp.List []);
      1, return (Sexp.List [ node ]);
      3,
      oneofl
        [ tagged "int" "x7"; tagged "int" "12"; tagged "float" "1.5e"; tagged "bool" "yes";
          tagged "bool" "true"; tagged "num" "5"; tagged "str" "a\"b\\c";
          Sexp.List [ Sexp.Atom "str" ]; Sexp.List [ Sexp.Atom "int"; Sexp.Atom "1"; Sexp.Atom "2" ];
          Sexp.List [ Sexp.Atom "str"; Sexp.List [] ] ] ]
    @
    match node with
    | Sexp.List (_ :: _ as l) ->
        let n = List.length l in
        [ 2, map (fun i -> Sexp.List (List.filteri (fun j _ -> j <> i) l)) (int_bound (n - 1));
          3,
          map
            (fun i -> Sexp.List (List.concat (List.mapi (fun j x -> if j = i then [ x; x ] else [ x ]) l)))
            (int_bound (n - 1));
          2, map (fun l -> Sexp.List l) (shuffle_l l) ]
    | _ -> []
  in
  map (fun r -> replace_nth k r e) (frequency edits)

(* A document (or record) as text: in the writer's layout, the wrapped
   layout or on one line, then perhaps cut short, with a comment after
   some line, or with one byte overwritten. *)
let render ~layout tree =
  let open QCheck.Gen in
  let* layout = layout in
  let text = layout tree in
  let n = String.length text in
  frequency
    [ 5, return text;
      1, map (fun i -> String.sub text 0 i) (int_bound (max 0 (n - 1)));
      2,
      map
        (fun i ->
          match String.index_from_opt text (min i (n - 1)) '\n' with
          | Some j -> String.sub text 0 (j + 1) ^ " ; a (comment) \"\n" ^ String.sub text (j + 1) (n - j - 1)
          | None -> text ^ "\n; trailing")
        (int_bound (max 0 (n - 1)));
      1,
      map2
        (fun i c -> String.mapi (fun j x -> if j = i then c else x) text)
        (int_bound (max 0 (n - 1)))
        (oneofl [ '"'; '('; ')'; '\\'; ';'; ' ' ]) ]

(* A row of a relation repeated somewhere in it: a duplicate key. *)
let repeated_row data =
  let open QCheck.Gen in
  match data with
  | Sexp.List (head :: rels) when rels <> [] ->
      let* r = int_bound (List.length rels - 1) in
      let repeat = function
        | Sexp.List (rel :: name :: (_ :: _ as rows)) ->
            let* i = int_bound (List.length rows - 1) in
            let* j = int_bound (List.length rows) in
            let row = List.nth rows i in
            return
              (Sexp.List
                 (rel :: name
                 :: (List.filteri (fun k _ -> k < j) rows
                    @ (row :: List.filteri (fun k _ -> k >= j) rows))))
        | rel -> return rel
      in
      let* rels = flatten_l (List.mapi (fun k rel -> if k = r then repeat rel else return rel) rels) in
      return (Sexp.List (head :: rels))
  | _ -> return data

(* A value of some row given another domain's value, or [null]: in a
   key, or across domains, the row does not conform. *)
let retyped_value data =
  let open QCheck.Gen in
  let rec count = function
    | Sexp.List [ Sexp.Atom _; _ ] -> 1
    | Sexp.List l -> List.fold_left (fun n e -> n + count e) 0 l
    | Sexp.Atom _ -> 0
  in
  let bindings = count data in
  if bindings = 0 then return data
  else
    let* k = int_bound (bindings - 1) in
    let* v =
      oneofl
        [ Sexp.Atom "null"; Sexp.List [ Sexp.Atom "bool"; Sexp.Atom "true" ];
          Sexp.List [ Sexp.Atom "int"; Sexp.Atom "3" ];
          Sexp.List [ Sexp.Atom "str"; Sexp.Atom "s" ] ]
    in
    let i = ref (-1) in
    let rec go = function
      | Sexp.List [ (Sexp.Atom _ as a); _ ] as b ->
          incr i;
          if !i = k then Sexp.List [ a; v ] else b
      | Sexp.List l -> Sexp.List (List.map go l)
      | e -> e
    in
    return (go data)

let reader_case_gen =
  let open QCheck.Gen in
  let* ws = workspace_gen in
  let doc = document_tree ws in
  let* doc =
    match doc with
    | Sexp.List items -> (
        match List.rev items with
        | data :: rev_header ->
            let* data = frequency [ 2, return data; 1, repeated_row data ] in
            let* data = frequency [ 2, return data; 1, retyped_value data ] in
            let* edits = int_bound 2 in
            let rec edit n d = if n = 0 then return d else mutation d >>= edit (n - 1) in
            map (fun data -> Sexp.List (List.rev (data :: rev_header))) (edit edits data)
        | [] -> return doc)
    | Sexp.Atom _ -> return doc
  in
  render ~layout:(oneofl [ reference_layout; wrapped_layout; Sexp.to_string ]) doc

let same_result equal a b =
  match a, b with
  | Ok a, Ok b -> equal a b
  | Error a, Error b -> String.equal a b
  | Ok _, Error _ | Error _, Ok _ -> false

let prop_reader_matches_tree_reader =
  QCheck.Test.make ~name:"snapshot reader = tree reader, on any document" ~count:400
    (QCheck.make ~print:Fun.id reader_case_gen)
    (fun doc ->
      same_result
        (fun (ws, e) (ws', e') ->
          workspace_equal ws ws' && e = e'
          && Penguin.Workspace.version ws = Penguin.Workspace.version ws')
        (Penguin.Store.load_snapshot doc)
        (Tree_reader.load_snapshot doc))

let test_save_matches_reference_layout_on_fixtures () =
  List.iter
    (fun ws ->
      Alcotest.(check string) "fixture document" (reference_save ws)
        (Penguin.Store.save ws))
    [ Penguin.University.workspace (); Penguin.Hospital.workspace ();
      Penguin.Cad.workspace () ]

let test_workspace_roundtrip () =
  List.iter
    (fun ws ->
      let doc = Penguin.Store.save ws in
      let ws' = check_ok (Penguin.Store.load doc) in
      Alcotest.(check bool) "workspace roundtrip" true (workspace_equal ws ws'))
    [ Penguin.University.workspace (); Penguin.Hospital.workspace ();
      Penguin.Cad.workspace () ]

let test_workspace_without_data () =
  let ws = Penguin.University.workspace () in
  let doc = Penguin.Store.save ~include_data:false ws in
  let ws' = check_ok (Penguin.Store.load doc) in
  Alcotest.(check int) "schemas restored, database empty" 0
    (Database.total_tuples ws'.Penguin.Workspace.db);
  Alcotest.(check (list string)) "objects restored" [ "omega"; "omega_prime" ]
    (List.map fst ws'.Penguin.Workspace.objects)

let test_loaded_workspace_is_operational () =
  (* save, load, then run the EES345 replacement on the loaded copy *)
  let ws = Penguin.University.workspace () in
  let ws' = check_ok (Penguin.Store.load (Penguin.Store.save ws)) in
  let old_i = Penguin.University.cs345_instance ws'.Penguin.Workspace.db in
  let new_i = Penguin.University.ees345_replacement old_i in
  let _ws'', outcome =
    Penguin.Workspace.update ws' "omega"
      (Vo_core.Request.replace ~old_instance:old_i ~new_instance:new_i)
  in
  ignore (committed_db outcome)

let test_file_roundtrip () =
  let ws = Penguin.Cad.workspace () in
  let path = Filename.temp_file "penguin" ".pws" in
  check_ok_e (Penguin.Store.save_file ws path);
  let ws' = check_ok (Penguin.Store.load_file path) in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip" true (workspace_equal ws ws')

(* A missing file is [None], an empty one [Some ""], and any other
   failure (here: reading a directory) a typed [Read] error. *)
let test_whole_file_read () =
  let read = Penguin.Fsio.default.Penguin.Fsio.read in
  let dir = temp_dir "penguin-read" in
  let path = Filename.concat dir "empty" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Alcotest.(check (option string)) "missing file" None (check_ok_e (read path));
  check_ok_e (Penguin.Fsio.default.Penguin.Fsio.write ~path ~append:false "");
  Alcotest.(check (option string)) "empty file" (Some "") (check_ok_e (read path));
  (match read dir with
  | Error (Penguin.Error.Io { op = Penguin.Error.Read; _ }) -> ()
  | Error e -> Alcotest.failf "not a Read error: %s" (Penguin.Error.to_string e)
  | Ok _ -> Alcotest.fail "a directory read as a file");
  ignore (check_err (Penguin.Store.load_file dir));
  ignore (check_err (Penguin.Store.load_file path))

let test_load_errors () =
  check_err_contains ~sub:"not a penguin-workspace" (Penguin.Store.load "(x)");
  ignore (check_err (Penguin.Store.load "((("));
  ignore (check_err (Penguin.Store.load_file "/nonexistent/x.pws"));
  (* an object without its translator is rejected *)
  let ws = Penguin.University.workspace () in
  let ws_broken =
    {
      ws with
      Penguin.Workspace.translators =
        List.map
          (fun (name, spec) ->
            if name = "omega" then
              name, { spec with Vo_core.Translator_spec.object_name = "gone" }
            else name, spec)
          ws.Penguin.Workspace.translators;
    }
  in
  check_err_contains ~sub:"has no translator"
    (Penguin.Store.load (Penguin.Store.save ws_broken))

let suite =
  [
    Alcotest.test_case "sexp roundtrip" `Quick test_sexp_roundtrip;
    Alcotest.test_case "sexp parse" `Quick test_sexp_parse;
    Alcotest.test_case "sexp keyed" `Quick test_sexp_keyed;
    QCheck_alcotest.to_alcotest prop_sexp_one_line;
    Alcotest.test_case "value roundtrip" `Quick test_value_roundtrip;
    Alcotest.test_case "instance roundtrip" `Quick test_instance_roundtrip;
    Alcotest.test_case "definition roundtrip" `Quick test_definition_roundtrip;
    Alcotest.test_case "definition wrong graph" `Quick test_definition_wrong_graph;
    Alcotest.test_case "translator roundtrip" `Quick test_translator_roundtrip;
    Alcotest.test_case "workspace roundtrip" `Quick test_workspace_roundtrip;
    QCheck_alcotest.to_alcotest prop_save_matches_reference_layout;
    QCheck_alcotest.to_alcotest prop_reader_matches_tree_reader;
    Alcotest.test_case "snapshot writer matches the reference layout on the fixtures"
      `Quick test_save_matches_reference_layout_on_fixtures;
    Alcotest.test_case "workspace without data" `Quick test_workspace_without_data;
    Alcotest.test_case "loaded workspace operational" `Quick test_loaded_workspace_is_operational;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "load errors" `Quick test_load_errors;
    Alcotest.test_case "whole-file read: missing, empty, unreadable" `Quick
      test_whole_file_read;
  ]
