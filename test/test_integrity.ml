open Relational
open Structural
open Test_util

let g = Penguin.University.graph
let db () = Penguin.University.seeded_db ()

let run_sql db script =
  match Sql.run_script db script with
  | Ok (db, _) -> db
  | Error e -> Alcotest.failf "sql: %s" e

let test_seeded_consistent () =
  Alcotest.(check int) "no violations" 0 (List.length (Integrity.check g (db ())))

let test_orphan_owned () =
  let db = run_sql (db ()) "INSERT INTO GRADES VALUES ('GHOST1', 1, 'F')" in
  let vs = Integrity.check g db in
  Alcotest.(check int) "one violation" 1 (List.length vs);
  let v = List.hd vs in
  Alcotest.(check string) "in GRADES" "GRADES" v.Integrity.relation;
  Alcotest.(check bool) "mentions owner" true
    (Relational.Strutil.contains ~sub:"owning" v.Integrity.message)

let test_dangling_reference () =
  let db = run_sql (db ()) "INSERT INTO CURRICULUM VALUES ('MS CS', 'NOPE', 'core')" in
  (* inserting a curriculum row referencing a ghost course also violates
     nothing else *)
  let vs = Integrity.check g db in
  Alcotest.(check int) "one violation" 1 (List.length vs);
  Alcotest.(check string) "in CURRICULUM" "CURRICULUM"
    (List.hd vs).Integrity.relation

let test_null_reference_ok () =
  (* PEOPLE.dept_name may be null: no violation. *)
  let db = run_sql (db ()) "INSERT INTO PEOPLE (pid, name) VALUES (99, 'Null Dept')" in
  Alcotest.(check int) "no violations" 0 (List.length (Integrity.check g db))

let test_orphan_subset () =
  let db = run_sql (db ()) "INSERT INTO STUDENT VALUES (99, 'BS CS', 1)" in
  let vs = Integrity.check g db in
  Alcotest.(check int) "one violation" 1 (List.length vs);
  Alcotest.(check bool) "mentions general" true
    (Relational.Strutil.contains ~sub:"general" (List.hd vs).Integrity.message)

let cascade ?(policy = fun _ -> Integrity.Delete_referencing) db seeds =
  Integrity.cascade_delete g db ~policy ~seeds

let course t = Option.get (Relation.lookup (Database.relation_exn t "COURSES") [ vs "CS345" ])

let test_cascade_ownership () =
  let d = db () in
  let ops = check_ok (cascade d [ "COURSES", course d ]) in
  (* CS345: 2 grades + 2 curriculum rows + the course itself *)
  Alcotest.(check int) "five ops" 5 (List.length ops);
  let deletes_grades =
    List.filter (fun op -> Op.is_delete op && Op.relation op = "GRADES") ops
  in
  Alcotest.(check int) "grades cascade" 2 (List.length deletes_grades);
  (* applying them leaves a consistent database *)
  let d' = check_ok (Transaction.run_result d ops) in
  Alcotest.(check int) "consistent after" 0 (List.length (Integrity.check g d'))

let test_cascade_restrict () =
  let d = db () in
  let e =
    check_err (cascade ~policy:(fun _ -> Integrity.Restrict) d [ "COURSES", course d ])
  in
  Alcotest.(check bool) "mentions restricted" true
    (Relational.Strutil.contains ~sub:"restricted" e)

let test_cascade_nullify_illegal_on_key () =
  let d = db () in
  let e =
    check_err (cascade ~policy:(fun _ -> Integrity.Nullify) d [ "COURSES", course d ])
  in
  Alcotest.(check bool) "names the key problem" true
    (Relational.Strutil.contains ~sub:"key" e)

let test_cascade_nullify_legal () =
  (* Hospital: appointments reference patients through a nonkey attr. *)
  let hg = Penguin.Hospital.graph in
  let hdb = Penguin.Hospital.seeded_db () in
  let patient =
    Option.get (Relation.lookup (Database.relation_exn hdb "PATIENT") [ vi 7001 ])
  in
  let policy (c : Connection.t) =
    if c.Connection.source = "APPOINTMENT" then Integrity.Nullify
    else Integrity.Delete_referencing
  in
  let ops = check_ok (Integrity.cascade_delete hg hdb ~policy ~seeds:[ "PATIENT", patient ]) in
  let nullifies = List.filter Op.is_replace ops in
  Alcotest.(check int) "two appointments nullified" 2 (List.length nullifies);
  let hdb' = check_ok (Transaction.run_result hdb ops) in
  Alcotest.(check int) "consistent" 0 (List.length (Integrity.check hg hdb'))

let test_cascade_depth () =
  (* Hospital ownership chain PATIENT -> VISIT -> ORDERS -> RESULT. *)
  let hg = Penguin.Hospital.graph in
  let hdb = Penguin.Hospital.seeded_db () in
  let patient =
    Option.get (Relation.lookup (Database.relation_exn hdb "PATIENT") [ vi 7001 ])
  in
  let ops =
    check_ok
      (Integrity.cascade_delete hg hdb
         ~policy:(fun _ -> Integrity.Nullify)
         ~seeds:[ "PATIENT", patient ])
  in
  let deleted rel = List.length (List.filter (fun o -> Op.is_delete o && Op.relation o = rel) ops) in
  Alcotest.(check int) "visits" 2 (deleted "VISIT");
  Alcotest.(check int) "orders" 3 (deleted "ORDERS");
  Alcotest.(check int) "results" 2 (deleted "RESULT");
  Alcotest.(check int) "patient" 1 (deleted "PATIENT")

let test_missing_dependencies () =
  let d = db () in
  (* A new grades tuple for a ghost course and ghost student. *)
  let t = tuple [ "course_id", vs "GHOST"; "pid", vi 77; "grade", vs "A" ] in
  let missing = Integrity.missing_dependencies g d "GRADES" t in
  Alcotest.(check int) "two dependencies" 2 (List.length missing);
  let rels =
    List.sort String.compare
      (List.map
         (fun ((c : Connection.t), _) ->
           if c.Connection.target = "GRADES" then c.Connection.source
           else c.Connection.target)
         missing)
  in
  Alcotest.(check (list string)) "courses and student" [ "COURSES"; "STUDENT" ] rels;
  (* existing course and student: no dependencies *)
  let t2 = tuple [ "course_id", vs "CS345"; "pid", vi 1; "grade", vs "A" ] in
  Alcotest.(check int) "none" 0
    (List.length (Integrity.missing_dependencies g d "GRADES" t2));
  (* null reference: no dependency *)
  let t3 = tuple [ "pid", vi 50; "name", vs "n" ] in
  Alcotest.(check int) "null ref ok" 0
    (List.length (Integrity.missing_dependencies g d "PEOPLE" t3))

(* A null connecting attribute matches no parent: the dependent tuple
   reports its owner missing, with the null binding, and a null
   reference needs nothing. *)
let test_missing_dependencies_null () =
  let d = db () in
  let t = tuple [ "course_id", Value.Null; "pid", vi 1; "grade", vs "A" ] in
  match Integrity.missing_dependencies g d "GRADES" t with
  | [ ((c : Connection.t), parent) ] ->
      Alcotest.(check string) "the owner" "COURSES" c.Connection.source;
      Alcotest.(check bool) "with the null binding" true
        (Value.is_null (Tuple.get parent "course_id"))
  | l -> Alcotest.failf "expected one missing owner, got %d" (List.length l)

(* One dependent tuple against its parent present, then absent, for
   an ownership and a reference connection. *)
let test_missing_dependencies_parent () =
  let d = db () in
  let grade = tuple [ "course_id", vs "CS345"; "pid", vi 1; "grade", vs "A" ] in
  let row =
    tuple
      [ "degree", vs "MS CS"; "course_id", vs "CS345"; "requirement", vs "core" ]
  in
  let missing d rel t =
    List.map
      (fun ((c : Connection.t), parent) ->
        (if c.Connection.target = rel then c.Connection.source
         else c.Connection.target),
        Tuple.get parent "course_id")
      (Integrity.missing_dependencies g d rel t)
  in
  let value = Alcotest.testable Value.pp Value.equal in
  let pairs = Alcotest.(list (pair string value)) in
  Alcotest.check pairs "owner present" [] (missing d "GRADES" grade);
  Alcotest.check pairs "referenced present" [] (missing d "CURRICULUM" row);
  let d =
    match Database.delete d "COURSES" [ vs "CS345" ] with
    | Ok d -> d
    | Error e -> Alcotest.fail (Database.error_to_string e)
  in
  Alcotest.check pairs "owner absent" [ "COURSES", vs "CS345" ]
    (missing d "GRADES" grade);
  Alcotest.check pairs "referenced absent" [ "COURSES", vs "CS345" ]
    (missing d "CURRICULUM" row)

let test_key_replacement_fixups () =
  let d = db () in
  let old_tuple = course d in
  let new_tuple = Tuple.set old_tuple "course_id" (vs "CS999") in
  let ops =
    Integrity.key_replacement_fixups g d ~relation:"COURSES" ~old_tuple
      ~new_tuple ~exclude:(fun _ -> false)
  in
  (* 2 grades rewritten (ownership) + 2 curriculum rows (reference) *)
  Alcotest.(check int) "four fixups" 4 (List.length ops);
  List.iter
    (fun op ->
      match op with
      | Op.Replace (_, _, t) ->
          Alcotest.check value_testable "new key propagated" (vs "CS999")
            (Tuple.get t "course_id")
      | _ -> Alcotest.fail "expected replaces")
    ops

let test_key_replacement_exclude () =
  let d = db () in
  let old_tuple = course d in
  let new_tuple = Tuple.set old_tuple "course_id" (vs "CS999") in
  let ops =
    Integrity.key_replacement_fixups g d ~relation:"COURSES" ~old_tuple
      ~new_tuple ~exclude:(fun r -> r = "GRADES")
  in
  Alcotest.(check int) "only curriculum" 2 (List.length ops);
  List.iter
    (fun op -> Alcotest.(check string) "curriculum" "CURRICULUM" (Op.relation op))
    ops

let test_key_replacement_no_change () =
  let d = db () in
  let t = course d in
  Alcotest.(check int) "no ops when key unchanged" 0
    (List.length
       (Integrity.key_replacement_fixups g d ~relation:"COURSES" ~old_tuple:t
          ~new_tuple:(Tuple.set t "title" (vs "Databases II"))
          ~exclude:(fun _ -> false)))

let suite =
  [
    Alcotest.test_case "seeded db consistent" `Quick test_seeded_consistent;
    Alcotest.test_case "orphan owned tuple" `Quick test_orphan_owned;
    Alcotest.test_case "dangling reference" `Quick test_dangling_reference;
    Alcotest.test_case "null reference ok" `Quick test_null_reference_ok;
    Alcotest.test_case "orphan subset tuple" `Quick test_orphan_subset;
    Alcotest.test_case "cascade ownership" `Quick test_cascade_ownership;
    Alcotest.test_case "cascade restrict" `Quick test_cascade_restrict;
    Alcotest.test_case "nullify illegal on key" `Quick test_cascade_nullify_illegal_on_key;
    Alcotest.test_case "nullify legal on nonkey" `Quick test_cascade_nullify_legal;
    Alcotest.test_case "cascade depth" `Quick test_cascade_depth;
    Alcotest.test_case "missing dependencies" `Quick test_missing_dependencies;
    Alcotest.test_case "missing dependencies: null connecting attribute" `Quick
      test_missing_dependencies_null;
    Alcotest.test_case "missing dependencies: parent present, then absent" `Quick
      test_missing_dependencies_parent;
    Alcotest.test_case "key replacement fixups" `Quick test_key_replacement_fixups;
    Alcotest.test_case "key replacement exclude" `Quick test_key_replacement_exclude;
    Alcotest.test_case "key replacement no change" `Quick test_key_replacement_no_change;
  ]
