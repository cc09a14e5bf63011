open Relational
open Viewobject
open Test_util

let omega = Penguin.University.omega
let db () = Penguin.University.seeded_db ()
let cs345 () = Penguin.University.cs345_instance (db ())

let test_accessors () =
  let i = cs345 () in
  Alcotest.(check string) "label" "COURSES" i.Instance.label;
  Alcotest.(check int) "grades children" 2
    (List.length (Instance.children_of i "GRADES"));
  Alcotest.(check int) "absent child label" 0
    (List.length (Instance.children_of i "GHOST"));
  Alcotest.(check int) "nodes" 8 (Instance.count_nodes i)

let test_flatten () =
  let flat = Instance.flatten (cs345 ()) in
  Alcotest.(check int) "eight nodes" 8 (List.length flat);
  Alcotest.(check string) "pre-order starts at pivot" "COURSES"
    (fst (List.hd flat));
  let labels = List.map fst flat in
  Alcotest.(check (list string)) "order"
    [ "COURSES"; "DEPARTMENT"; "GRADES"; "STUDENT#2"; "GRADES"; "STUDENT#2";
      "CURRICULUM"; "CURRICULUM" ]
    labels

let test_with_children_tuple () =
  let i = cs345 () in
  let i2 = Instance.with_children i "GRADES" [] in
  Alcotest.(check int) "emptied" 0 (List.length (Instance.children_of i2 "GRADES"));
  let i3 = Instance.with_tuple i (tuple [ "course_id", vs "X1" ]) in
  Alcotest.check value_testable "tuple swapped" (vs "X1")
    (Tuple.get i3.Instance.tuple "course_id");
  let leaf = Instance.leaf ~label:"NEW" ~relation:"R" Tuple.empty in
  let i4 = Instance.with_children i "NEWKIDS" [ leaf ] in
  Alcotest.(check int) "appended child label" 1
    (List.length (Instance.children_of i4 "NEWKIDS"))

let test_equal () =
  Alcotest.(check bool) "self equal" true (Instance.equal (cs345 ()) (cs345 ()));
  let other = Instance.with_tuple (cs345 ()) Tuple.empty in
  Alcotest.(check bool) "different" false (Instance.equal (cs345 ()) other)

let test_conforms_ok () =
  check_ok (Instance.conforms omega (cs345 ()))

let test_conforms_bad_label () =
  let i = { (cs345 ()) with Instance.label = "WRONG" } in
  check_err_contains ~sub:"does not match" (Instance.conforms omega i)

let test_conforms_attr_outside_projection () =
  let i = cs345 () in
  let i = Instance.with_tuple i (Tuple.set i.Instance.tuple "dept_name" (vs "CS")) in
  check_err_contains ~sub:"outside its projection" (Instance.conforms omega i)

let test_conforms_singleton () =
  let i = cs345 () in
  let dept = List.hd (Instance.children_of i "DEPARTMENT") in
  let i = Instance.with_children i "DEPARTMENT" [ dept; dept ] in
  check_err_contains ~sub:"at most one" (Instance.conforms omega i)

let test_to_ascii () =
  let s = Instance.to_ascii (cs345 ()) in
  Alcotest.(check bool) "figure-4 style" true
    (Relational.Strutil.contains ~sub:"(COURSES: course_id=CS345" s);
  Alcotest.(check bool) "nested student" true
    (Relational.Strutil.contains ~sub:"(STUDENT#2:" s)

(* The Fmt-based rendering [Instance.to_ascii] used before it wrote
   straight into a buffer, with the formatter-based [Value.pp_plain] of
   that time: the reference the buffer writer must match byte for
   byte. *)
let fmt_to_ascii inst =
  let buf = Buffer.create 256 in
  let pp_plain ppf = function
    | Value.Str s -> Fmt.string ppf s
    | v -> Value.pp ppf v
  in
  let pp_tuple t =
    String.concat ", "
      (List.map (fun (a, v) -> Fmt.str "%s=%a" a pp_plain v) (Tuple.bindings t))
  in
  let rec go indent (i : Instance.t) =
    Buffer.add_string buf
      (Fmt.str "%s(%s: %s" indent i.Instance.label (pp_tuple i.Instance.tuple));
    if List.for_all (fun (_, cs) -> cs = []) i.Instance.children then
      Buffer.add_string buf ")\n"
    else begin
      Buffer.add_string buf "\n";
      List.iter (fun (_, cs) -> List.iter (go (indent ^ "  ")) cs) i.Instance.children;
      Buffer.add_string buf (indent ^ ")\n")
    end
  in
  go "" inst;
  Buffer.contents buf

(* Random instances: values include nulls, special floats and strings
   with quotes, backslashes, newlines and long runs (past a formatter's
   margin). *)
let instance_gen =
  let open QCheck.Gen in
  let str =
    oneof
      [ string_size ~gen:printable (int_bound 12);
        oneofl
          [ ""; "a \"quoted\" word"; "back\\slash"; "line\nbreak"; "tab\there";
            "caf\xc3\xa9"; String.make 120 'x' ^ " " ^ String.make 40 'y' ] ]
  in
  let value =
    frequency
      [ 1, return Value.Null;
        2, map (fun i -> Value.Int i) (int_range (-100000) 100000);
        1, map (fun i -> Value.Int i) (oneofl [ max_int; min_int; 0 ]);
        2, map (fun f -> Value.Float f) float;
        1, map (fun f -> Value.Float f) (oneofl [ 0.1; -0.; 1e300; nan; infinity; 3. ]);
        3, map (fun s -> Value.Str s) str;
        1, map (fun b -> Value.Bool b) bool ]
  in
  let label_gen = oneofl [ "COURSES"; "GRADES"; "STUDENT#2"; "D" ] in
  let tuple =
    map Tuple.make
      (list_size (int_bound 5) (pair (oneofl [ "a"; "b"; "pid"; "x_1"; "grade" ]) value))
  in
  sized_size (int_bound 3)
  @@ fix (fun self depth ->
         let* label = label_gen and* tuple = tuple in
         let* children =
           if depth = 0 then return []
           else
             list_size (int_bound 3)
               (pair label_gen (list_size (int_bound 3) (self (depth - 1))))
         in
         return (Instance.make ~label ~relation:label ~tuple ~children))

let prop_ascii_matches_fmt =
  QCheck.Test.make ~name:"to_ascii = the Fmt rendering, byte for byte"
    ~count:500
    (QCheck.make ~print:fmt_to_ascii instance_gen)
    (fun i -> String.equal (Instance.to_ascii i) (fmt_to_ascii i))

(* Component editing (partial updates). *)
let test_modify_component () =
  let open Vo_core in
  let i = cs345 () in
  let i' =
    check_ok
      (Request.modify_component i ~label:"GRADES" ~at:(tuple [ "pid", vi 1 ])
         ~f:(fun t -> Tuple.set t "grade" (vs "A+")))
  in
  let grades = Instance.children_of i' "GRADES" in
  let g1 = List.find (fun (s : Instance.t) -> Tuple.get s.Instance.tuple "pid" = vi 1) grades in
  Alcotest.check value_testable "modified" (vs "A+") (Tuple.get g1.Instance.tuple "grade");
  check_err_contains ~sub:"no sub-instance"
    (Request.modify_component i ~label:"GRADES" ~at:(tuple [ "pid", vi 999 ])
       ~f:(fun t -> t));
  check_err_contains ~sub:"be more specific"
    (Request.modify_component i ~label:"GRADES" ~at:Tuple.empty ~f:(fun t -> t))

let test_detach_component () =
  let open Vo_core in
  let i = cs345 () in
  let i' =
    check_ok (Request.detach_component i ~label:"GRADES" ~at:(tuple [ "pid", vi 2 ]))
  in
  Alcotest.(check int) "one grade left" 1
    (List.length (Instance.children_of i' "GRADES"));
  check_err_contains ~sub:"root"
    (Request.detach_component i ~label:"COURSES"
       ~at:(tuple [ "course_id", vs "CS345" ]))

let test_attach_component () =
  let open Vo_core in
  let i = cs345 () in
  let child =
    Instance.make ~label:"GRADES" ~relation:"GRADES"
      ~tuple:(tuple [ "pid", vi 5; "grade", vs "B" ])
      ~children:
        [ "STUDENT#2",
          [ Instance.leaf ~label:"STUDENT#2" ~relation:"STUDENT"
              (tuple [ "pid", vi 5; "degree_program", vs "PhD CS"; "year", vi 2 ]) ] ]
  in
  let i' =
    check_ok
      (Request.attach_component i ~parent_label:"COURSES"
         ~at:(tuple [ "course_id", vs "CS345" ])
         ~child)
  in
  Alcotest.(check int) "three grades" 3
    (List.length (Instance.children_of i' "GRADES"));
  check_ok (Instance.conforms omega i')

let test_partial_builders () =
  let open Vo_core in
  let i = cs345 () in
  (match
     check_ok
       (Request.partial_modify i ~label:"GRADES" ~at:(tuple [ "pid", vi 1 ])
          ~f:(fun t -> Tuple.set t "grade" (vs "C")))
   with
  | Request.Replace { old_instance; new_instance } ->
      Alcotest.(check bool) "old kept" true (Instance.equal old_instance i);
      Alcotest.(check bool) "new differs" false (Instance.equal new_instance i)
  | _ -> Alcotest.fail "expected Replace");
  match check_ok (Request.partial_detach i ~label:"CURRICULUM" ~at:(tuple [ "degree", vs "MS CS" ])) with
  | Request.Replace { new_instance; _ } ->
      Alcotest.(check int) "one curriculum left" 1
        (List.length (Instance.children_of new_instance "CURRICULUM"))
  | _ -> Alcotest.fail "expected Replace"

let suite =
  [
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "flatten" `Quick test_flatten;
    Alcotest.test_case "with_children/tuple" `Quick test_with_children_tuple;
    Alcotest.test_case "equal" `Quick test_equal;
    Alcotest.test_case "conforms ok" `Quick test_conforms_ok;
    Alcotest.test_case "conforms bad label" `Quick test_conforms_bad_label;
    Alcotest.test_case "conforms projection" `Quick test_conforms_attr_outside_projection;
    Alcotest.test_case "conforms singleton" `Quick test_conforms_singleton;
    Alcotest.test_case "ascii (Fig 4 style)" `Quick test_to_ascii;
    qtest prop_ascii_matches_fmt;
    Alcotest.test_case "modify component" `Quick test_modify_component;
    Alcotest.test_case "detach component" `Quick test_detach_component;
    Alcotest.test_case "attach component" `Quick test_attach_component;
    Alcotest.test_case "partial builders" `Quick test_partial_builders;
  ]
