open Relational
open Viewobject
open Test_util

let db () = Penguin.University.seeded_db ()
let omega = Penguin.University.omega

let test_values () =
  Alcotest.(check string) "null" "null" (Penguin.Json_export.value Value.Null);
  Alcotest.(check string) "int" "42" (Penguin.Json_export.value (vi 42));
  Alcotest.(check string) "float" "2.5" (Penguin.Json_export.value (vf 2.5));
  Alcotest.(check string) "bool" "true" (Penguin.Json_export.value (vb true));
  Alcotest.(check string) "string" "\"x\"" (Penguin.Json_export.value (vs "x"));
  Alcotest.(check string) "escapes" "\"a\\\"b\\\\c\\nd\""
    (Penguin.Json_export.value (vs "a\"b\\c\nd"));
  Alcotest.(check string) "control chars" "\"\\u0001\""
    (Penguin.Json_export.value (vs "\001"))

(* [nan] and the infinities are not JSON numbers: they render as null,
   and an instance holding them still parses. An int past 2^53 stays
   exact. *)
let test_non_finite_floats () =
  List.iter
    (fun f ->
      Alcotest.(check string) (Fmt.str "%h is null" f) "null"
        (Penguin.Json_export.value (vf f)))
    [ nan; infinity; neg_infinity ];
  Alcotest.(check string) "an int past 2^53" "9007199254740993"
    (Penguin.Json_export.value (vi 9007199254740993));
  Alcotest.(check string) "a float reads back equal" "0.30000000000000004"
    (Penguin.Json_export.value (vf (0.1 +. 0.2)));
  let i = Penguin.University.cs345_instance (db ()) in
  let i =
    Instance.with_tuple i (Relational.Tuple.set i.Instance.tuple "units" (vf nan))
  in
  match Obs.Json.parse (Penguin.Json_export.instance omega i) with
  | Ok doc ->
      Alcotest.(check bool) "units is null" true
        (Obs.Json.member "units" doc = Some Obs.Json.Null)
  | Error e -> Alcotest.failf "not JSON: %s" e

let test_instance_shape () =
  let i = Penguin.University.cs345_instance (db ()) in
  let json = Penguin.Json_export.instance omega i in
  (* singleton reference child renders as a nested object *)
  Alcotest.(check bool) "department nested object" true
    (Relational.Strutil.contains ~sub:"\"DEPARTMENT\":{" json);
  (* set-valued ownership child renders as an array *)
  Alcotest.(check bool) "grades array" true
    (Relational.Strutil.contains ~sub:"\"GRADES\":[{" json);
  (* inverse reference child (curriculum) is also set-valued *)
  Alcotest.(check bool) "curriculum array" true
    (Relational.Strutil.contains ~sub:"\"CURRICULUM\":[{" json);
  Alcotest.(check bool) "attributes present" true
    (Relational.Strutil.contains ~sub:"\"course_id\":\"CS345\"" json)

let test_missing_singleton_is_null () =
  (* A course instance without its department: null, not []. *)
  let i = Penguin.University.cs345_instance (db ()) in
  let i = Instance.with_children i "DEPARTMENT" [] in
  let json = Penguin.Json_export.instance omega i in
  Alcotest.(check bool) "null singleton" true
    (Relational.Strutil.contains ~sub:"\"DEPARTMENT\":null" json)

let test_empty_set_is_array () =
  let i = Penguin.University.cs345_instance (db ()) in
  let i = Instance.with_children i "GRADES" [] in
  let json = Penguin.Json_export.instance omega i in
  Alcotest.(check bool) "empty array" true
    (Relational.Strutil.contains ~sub:"\"GRADES\":[]" json)

let test_instances_array () =
  let is = Instantiate.instantiate (db ()) omega in
  let json = Penguin.Json_export.instances omega is in
  Alcotest.(check bool) "array" true
    (String.length json > 2 && json.[0] = '[' && json.[String.length json - 1] = ']');
  (* quick well-formedness: balanced braces and brackets *)
  let depth = ref 0 and ok = ref true and in_str = ref false in
  String.iteri
    (fun idx c ->
      if !in_str then (if c = '"' && json.[idx - 1] <> '\\' then in_str := false)
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    json;
  Alcotest.(check bool) "balanced" true (!ok && !depth = 0)

let test_unbound_attr_is_null () =
  let i =
    Instance.make ~label:"COURSES" ~relation:"COURSES"
      ~tuple:(tuple [ "course_id", vs "X1" ])
      ~children:[]
  in
  let json = Penguin.Json_export.instance omega i in
  Alcotest.(check bool) "projected attrs padded with null" true
    (Relational.Strutil.contains ~sub:"\"title\":null" json)

let suite =
  [
    Alcotest.test_case "scalar values" `Quick test_values;
    Alcotest.test_case "non-finite floats are null" `Quick test_non_finite_floats;
    Alcotest.test_case "instance shape" `Quick test_instance_shape;
    Alcotest.test_case "missing singleton" `Quick test_missing_singleton_is_null;
    Alcotest.test_case "empty set" `Quick test_empty_set_is_array;
    Alcotest.test_case "instances array" `Quick test_instances_array;
    Alcotest.test_case "unbound attr" `Quick test_unbound_attr_is_null;
  ]
