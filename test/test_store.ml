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
        (check_ok (Penguin.Store.value_of_sexp (Penguin.Store.value_to_sexp v))))
    [ Value.Null; vi 42; vi (-1); vf 3.25; vf 33.333333333333336;
      vs "plain"; vs "with (parens) and \"quotes\""; vb true; vb false ]

let test_instance_roundtrip () =
  let db = Penguin.University.seeded_db () in
  let i = Penguin.University.cs345_instance db in
  let i' =
    check_ok (Penguin.Store.instance_of_sexp (Penguin.Store.instance_to_sexp i))
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

(* The snapshot writer against the tree it writes: the definitions
   document, re-read as a tree, plus the data section built as a tree
   from [tuple_to_sexp] rows, printed by [reference_layout]. Output must
   match byte for byte, whatever slice sizes the render is cut into. *)
let reference_save ws =
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
  | Sexp.List items -> reference_layout (Sexp.List (items @ [ data ]))
  | Sexp.Atom _ -> Alcotest.fail "header is not a list"

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
  QCheck.Test.make ~name:"snapshot writer matches the reference layout, in any slices"
    ~count:500
    (QCheck.make ~print:reference_save workspace_gen)
    (fun ws ->
      let expected = reference_save ws in
      let defs = Penguin.Store.save ~include_data:false ws in
      String.equal defs (reference_layout (check_ok (Sexp.parse defs)))
      && String.equal (Penguin.Store.save ws) expected
      && List.for_all
           (fun rows ->
             let r = Penguin.Store.Render.start ~epoch:0 ws in
             let rec go () =
               match Penguin.Store.Render.slice r ~rows with
               | Some doc -> String.equal doc expected
               | None -> go ()
             in
             go ())
           (List.init 24 (fun i -> i + 1)))

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
    Alcotest.test_case "snapshot writer matches the reference layout on the fixtures"
      `Quick test_save_matches_reference_layout_on_fixtures;
    Alcotest.test_case "workspace without data" `Quick test_workspace_without_data;
    Alcotest.test_case "loaded workspace operational" `Quick test_loaded_workspace_is_operational;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "load errors" `Quick test_load_errors;
  ]
