open Relational
open Structural
open Viewobject
open Test_util

let g = Penguin.University.graph
let omega = Penguin.University.omega
let db () = Penguin.University.seeded_db ()
let spec = Penguin.University.omega_translator
let cs345 d = Penguin.University.cs345_instance d

let translate ?(spec = spec) d ~old_i ~new_i =
  Vo_core.Vo_r.translate g d omega spec ~old_instance:old_i ~new_instance:new_i

let modify i label at f =
  check_ok (Vo_core.Request.modify_component i ~label ~at ~f)

let test_r1_identity () =
  let d = db () in
  let i = cs345 d in
  let ops = check_ok (translate d ~old_i:i ~new_i:i) in
  Alcotest.(check int) "identical instances produce no ops" 0 (List.length ops)

let test_r2_nonkey_change () =
  let d = db () in
  let i = cs345 d in
  let i' =
    Instance.with_tuple i (Tuple.set i.Instance.tuple "units" (vi 4))
  in
  let ops = check_ok (translate d ~old_i:i ~new_i:i') in
  (match ops with
  | [ Op.Replace ("COURSES", [ k ], t) ] ->
      Alcotest.check value_testable "same key" (vs "CS345") k;
      Alcotest.check value_testable "units" (vi 4) (Tuple.get t "units");
      Alcotest.check value_testable "title preserved" (vs "Database Systems")
        (Tuple.get t "title")
  | _ -> Alcotest.failf "expected single COURSES replace, got %a" Op.pp_list ops)

let test_r2_grade_change () =
  let d = db () in
  let i = cs345 d in
  let i' = modify i "GRADES" (tuple [ "pid", vi 1 ]) (fun t -> Tuple.set t "grade" (vs "A+")) in
  let ops = check_ok (translate d ~old_i:i ~new_i:i') in
  match ops with
  | [ Op.Replace ("GRADES", [ c; p ], t) ] ->
      Alcotest.check value_testable "course" (vs "CS345") c;
      Alcotest.check value_testable "pid" (vi 1) p;
      Alcotest.check value_testable "grade" (vs "A+") (Tuple.get t "grade")
  | _ -> Alcotest.failf "expected single GRADES replace, got %a" Op.pp_list ops

let ees345 d =
  let old_i = cs345 d in
  old_i, Penguin.University.ees345_replacement old_i

let test_r3_key_replacement_paper_example () =
  let d = db () in
  let old_i, new_i = ees345 d in
  let ops = check_ok (translate d ~old_i ~new_i) in
  (* COURSES replace + DEPARTMENT insert + 2 GRADES replaces + 2
     CURRICULUM fix-ups *)
  Alcotest.(check int) "six ops" 6 (List.length ops);
  let courses_replace =
    List.find (fun o -> Op.is_replace o && Op.relation o = "COURSES") ops
  in
  (match courses_replace with
  | Op.Replace (_, [ old_k ], t) ->
      Alcotest.check value_testable "old key" (vs "CS345") old_k;
      Alcotest.check value_testable "new key" (vs "EES345")
        (Tuple.get t "course_id");
      Alcotest.check value_testable "new department referenced"
        (vs "Engineering Economic Systems")
        (Tuple.get t "dept_name")
  | _ -> Alcotest.fail "bad COURSES op");
  Alcotest.(check bool) "department inserted (paper)" true
    (List.exists (fun o -> Op.is_insert o && Op.relation o = "DEPARTMENT") ops);
  let grade_replaces =
    List.filter (fun o -> Op.is_replace o && Op.relation o = "GRADES") ops
  in
  Alcotest.(check int) "grades keys propagate" 2 (List.length grade_replaces);
  let curr_fixups =
    List.filter (fun o -> Op.is_replace o && Op.relation o = "CURRICULUM") ops
  in
  Alcotest.(check int) "peninsula foreign keys rewritten" 2
    (List.length curr_fixups);
  let d' = check_ok (Transaction.run_result d ops) in
  Alcotest.(check int) "consistent" 0 (List.length (Integrity.check g d'))

let test_r3_restrictive_rejects () =
  let d = db () in
  let old_i, new_i = ees345 d in
  check_err_contains ~sub:"not allowed"
    (translate ~spec:Penguin.University.omega_translator_restrictive d ~old_i
       ~new_i)

let test_r3_key_change_denied () =
  let d = db () in
  let old_i, new_i = ees345 d in
  let locked =
    Vo_core.Translator_spec.with_island_key spec "COURSES"
      Vo_core.Translator_spec.forbid_key_changes
  in
  check_err_contains ~sub:"may not be modified"
    (translate ~spec:locked d ~old_i ~new_i)

let test_r3_db_key_replace_denied () =
  let d = db () in
  let old_i, new_i = ees345 d in
  let locked =
    Vo_core.Translator_spec.with_island_key spec "COURSES"
      { Vo_core.Translator_spec.allow_vo_key_change = true;
        allow_db_key_replace = false; allow_merge_with_existing = false }
  in
  check_err_contains ~sub:"is not allowed"
    (translate ~spec:locked d ~old_i ~new_i)

let test_r3_merge_denied_by_paper_translator () =
  (* Renaming CS345 to an EXISTING course id needs the merge permission,
     which the paper's DBA answered NO. *)
  let d = db () in
  let old_i = cs345 d in
  let new_i =
    Instance.with_tuple old_i
      (Tuple.set old_i.Instance.tuple "course_id" (vs "CS101"))
  in
  (* strip children that would inherit the key to keep the scenario small *)
  check_err_contains ~sub:"is not allowed"
    (translate d ~old_i ~new_i)

let test_r3_merge_allowed () =
  let d = db () in
  let merger =
    Vo_core.Translator_spec.with_island_key spec "GRADES"
      { Vo_core.Translator_spec.allow_vo_key_change = true;
        allow_db_key_replace = true; allow_merge_with_existing = true }
  in
  let i = cs345 d in
  (* Re-point the grade of student 1 to student 2, whose grade row
     already exists: old tuple deleted, existing row merged. *)
  let i' =
    check_ok
      (Vo_core.Request.detach_component i ~label:"GRADES" ~at:(tuple [ "pid", vi 2 ]))
  in
  let old_i =
    check_ok
      (Vo_core.Request.detach_component i ~label:"GRADES" ~at:(tuple [ "pid", vi 1 ]))
  in
  (* old view: grade(pid=2); new view: grade(pid=2->pid... ) *)
  ignore i';
  let new_i =
    modify old_i "GRADES" (tuple [ "pid", vi 2 ]) (fun t ->
        Tuple.set (Tuple.set t "pid" (vi 1)) "grade" (vs "B+"))
  in
  let ops = check_ok (translate ~spec:merger d ~old_i ~new_i) in
  Alcotest.(check bool) "delete old grade" true
    (List.exists (fun o -> Op.is_delete o && Op.relation o = "GRADES") ops);
  Alcotest.(check bool) "replace existing grade" true
    (List.exists (fun o -> Op.is_replace o && Op.relation o = "GRADES") ops);
  let d' = check_ok (Transaction.run_result d ops) in
  Alcotest.(check int) "consistent" 0 (List.length (Integrity.check g d'))

let test_peninsula_own_key_prohibited () =
  let d = db () in
  let i = cs345 d in
  let i' =
    modify i "CURRICULUM" (tuple [ "degree", vs "MS CS" ]) (fun t ->
        Tuple.set t "degree" (vs "MS AI"))
  in
  check_err_contains ~sub:"prohibited" (translate d ~old_i:i ~new_i:i')

let test_peninsula_nonkey_change () =
  let d = db () in
  let i = cs345 d in
  let i' =
    modify i "CURRICULUM" (tuple [ "degree", vs "MS CS" ]) (fun t ->
        Tuple.set t "requirement" (vs "elective"))
  in
  let ops = check_ok (translate d ~old_i:i ~new_i:i') in
  (match ops with
  | [ Op.Replace ("CURRICULUM", [ dg; ci ], t) ]
    when Value.equal dg (vs "MS CS") && Value.equal ci (vs "CS345") ->
      Alcotest.check value_testable "requirement" (vs "elective")
        (Tuple.get t "requirement")
  | _ -> Alcotest.failf "unexpected ops %a" Op.pp_list ops);
  let d' = check_ok (Transaction.run_result d ops) in
  Alcotest.(check int) "consistent" 0 (List.length (Integrity.check g d'))

let test_i2_insert_grade () =
  (* Attaching a new GRADES sub-instance inserts it (island insertion). *)
  let d = db () in
  let i = cs345 d in
  let child =
    Instance.make ~label:"GRADES" ~relation:"GRADES"
      ~tuple:(tuple [ "pid", vi 5; "grade", vs "B" ])
      ~children:
        [ "STUDENT#2",
          [ Instance.leaf ~label:"STUDENT#2" ~relation:"STUDENT"
              (tuple [ "pid", vi 5; "degree_program", vs "PhD CS"; "year", vi 2 ]) ] ]
  in
  let new_i =
    check_ok
      (Vo_core.Request.attach_component i ~parent_label:"COURSES"
         ~at:(tuple [ "course_id", vs "CS345" ]) ~child)
  in
  let ops = check_ok (translate d ~old_i:i ~new_i) in
  (match ops with
  | [ Op.Insert ("GRADES", t) ] ->
      Alcotest.check value_testable "inherits course" (vs "CS345")
        (Tuple.get t "course_id")
  | _ -> Alcotest.failf "unexpected %a" Op.pp_list ops);
  let d' = check_ok (Transaction.run_result d ops) in
  Alcotest.(check int) "consistent" 0 (List.length (Integrity.check g d'))

(* Attach a GRADES sub-instance of student 1 (the seeded STUDENT row)
   to CS345. *)
let attach_grade d grade =
  let child =
    Instance.make ~label:"GRADES" ~relation:"GRADES"
      ~tuple:(tuple [ "pid", vi 1; "grade", vs grade ])
      ~children:
        [ "STUDENT#2",
          [ Instance.leaf ~label:"STUDENT#2" ~relation:"STUDENT"
              (tuple [ "pid", vi 1; "degree_program", vs "MS CS"; "year", vi 2 ]) ] ]
  in
  let old_i = cs345 d in
  let new_i =
    check_ok
      (Vo_core.Request.attach_component old_i ~parent_label:"COURSES"
         ~at:(tuple [ "course_id", vs "CS345" ]) ~child)
  in
  translate d ~old_i ~new_i

let test_attach_identical_grade_rejected () =
  (* Student 1 already has grade A in CS345: VO-CI case 1 in the island. *)
  check_err_contains ~sub:"already exists" (attach_grade (db ()) "A")

let test_attach_conflicting_grade_rejected () =
  (* Same key (CS345, 1), different grade: VO-CI case 3 in the island. *)
  check_err_contains ~sub:"same key" (attach_grade (db ()) "C")

let test_island_subtree_removal_deletes () =
  let d = db () in
  let i = cs345 d in
  let new_i =
    check_ok
      (Vo_core.Request.detach_component i ~label:"GRADES" ~at:(tuple [ "pid", vi 2 ]))
  in
  let ops = check_ok (translate d ~old_i:i ~new_i) in
  (match ops with
  | [ Op.Delete ("GRADES", [ c; p ]) ] ->
      Alcotest.check value_testable "course" (vs "CS345") c;
      Alcotest.check value_testable "pid" (vi 2) p
  | _ -> Alcotest.failf "unexpected %a" Op.pp_list ops);
  let d' = check_ok (Transaction.run_result d ops) in
  Alcotest.(check int) "consistent" 0 (List.length (Integrity.check g d'))

let test_outside_removal_is_noop () =
  let d = db () in
  let i = cs345 d in
  let new_i =
    check_ok
      (Vo_core.Request.detach_component i ~label:"CURRICULUM"
         ~at:(tuple [ "degree", vs "PhD CS" ]))
  in
  let ops = check_ok (translate d ~old_i:i ~new_i) in
  Alcotest.(check int) "shared data untouched" 0 (List.length ops)

let test_i1_outside_modify () =
  let d = db () in
  let i = cs345 d in
  let i' =
    modify i "DEPARTMENT" (tuple [ "dept_name", vs "Computer Science" ])
      (fun t -> Tuple.set t "building" (vs "Allen"))
  in
  let ops = check_ok (translate d ~old_i:i ~new_i:i') in
  (match ops with
  | [ Op.Replace ("DEPARTMENT", [ k ], t) ] ->
      Alcotest.check value_testable "key" (vs "Computer Science") k;
      Alcotest.check value_testable "building" (vs "Allen") (Tuple.get t "building")
  | _ -> Alcotest.failf "unexpected %a" Op.pp_list ops);
  (* denied under the restrictive-translator's locked DEPARTMENT *)
  check_err_contains ~sub:"not allowed"
    (translate ~spec:Penguin.University.omega_translator_restrictive d ~old_i:i
       ~new_i:i')

let test_i4_existing_department_conflict () =
  let d = db () in
  let i = cs345 d in
  (* Move the course to Mathematics but claim a different building:
     existing tuple conflicts -> I-4 replacement of MATHEMATICS row. *)
  let i' =
    modify i "DEPARTMENT" (tuple [ "dept_name", vs "Computer Science" ])
      (fun _ -> tuple [ "dept_name", vs "Mathematics"; "building", vs "NewSloan" ])
  in
  let ops = check_ok (translate d ~old_i:i ~new_i:i') in
  Alcotest.(check bool) "courses rewired" true
    (List.exists
       (fun o ->
         match o with
         | Op.Replace ("COURSES", _, t) ->
             Value.equal (Tuple.get t "dept_name") (vs "Mathematics")
         | _ -> false)
       ops);
  Alcotest.(check bool) "maths row updated (I-4)" true
    (List.exists
       (fun o ->
         match o with
         | Op.Replace ("DEPARTMENT", [ k ], _) -> Value.equal k (vs "Mathematics")
         | _ -> false)
       ops);
  let d' = check_ok (Transaction.run_result d ops) in
  Alcotest.(check int) "consistent" 0 (List.length (Integrity.check g d'))

let test_i3_existing_department_identical () =
  let d = db () in
  let i = cs345 d in
  let i' =
    modify i "DEPARTMENT" (tuple [ "dept_name", vs "Computer Science" ])
      (fun _ -> tuple [ "dept_name", vs "Mathematics"; "building", vs "Sloan" ])
  in
  let ops = check_ok (translate d ~old_i:i ~new_i:i') in
  (* only the COURSES rewiring; Mathematics row already agrees (I-3) *)
  (match ops with
  | [ Op.Replace ("COURSES", _, t) ] ->
      Alcotest.check value_testable "rewired" (vs "Mathematics")
        (Tuple.get t "dept_name")
  | _ -> Alcotest.failf "unexpected %a" Op.pp_list ops);
  let d' = check_ok (Transaction.run_result d ops) in
  Alcotest.(check int) "consistent" 0 (List.length (Integrity.check g d'))

let test_replacement_not_allowed () =
  let d = db () in
  let i = cs345 d in
  let locked = { spec with Vo_core.Translator_spec.allow_replacement = false } in
  check_err_contains ~sub:"does not allow"
    (translate ~spec:locked d ~old_i:i ~new_i:i)

let test_stale_old_instance () =
  let d = db () in
  let i = cs345 d in
  let stale = Instance.with_tuple i (Tuple.set i.Instance.tuple "units" (vi 9)) in
  let fresh = Instance.with_tuple i (Tuple.set i.Instance.tuple "units" (vi 2)) in
  check_err_contains ~sub:"stale" (translate d ~old_i:stale ~new_i:fresh)

let suite =
  [
    Alcotest.test_case "R-1 identity" `Quick test_r1_identity;
    Alcotest.test_case "R-2 pivot nonkey change" `Quick test_r2_nonkey_change;
    Alcotest.test_case "R-2 grade change" `Quick test_r2_grade_change;
    Alcotest.test_case "R-3 EES345 (paper example)" `Quick test_r3_key_replacement_paper_example;
    Alcotest.test_case "R-3 restrictive rejects (paper)" `Quick test_r3_restrictive_rejects;
    Alcotest.test_case "R-3 vo key denied" `Quick test_r3_key_change_denied;
    Alcotest.test_case "R-3 db key denied" `Quick test_r3_db_key_replace_denied;
    Alcotest.test_case "R-3 merge denied (paper answer)" `Quick test_r3_merge_denied_by_paper_translator;
    Alcotest.test_case "R-3 merge allowed" `Quick test_r3_merge_allowed;
    Alcotest.test_case "peninsula own key prohibited" `Quick test_peninsula_own_key_prohibited;
    Alcotest.test_case "peninsula nonkey change" `Quick test_peninsula_nonkey_change;
    Alcotest.test_case "I-2 attach grade" `Quick test_i2_insert_grade;
    Alcotest.test_case "attach identical grade rejected" `Quick test_attach_identical_grade_rejected;
    Alcotest.test_case "attach same-key grade rejected" `Quick test_attach_conflicting_grade_rejected;
    Alcotest.test_case "island subtree removal" `Quick test_island_subtree_removal_deletes;
    Alcotest.test_case "outside removal no-op" `Quick test_outside_removal_is_noop;
    Alcotest.test_case "I-1 outside modify" `Quick test_i1_outside_modify;
    Alcotest.test_case "I-4 conflicting existing" `Quick test_i4_existing_department_conflict;
    Alcotest.test_case "I-3 identical existing" `Quick test_i3_existing_department_identical;
    Alcotest.test_case "replacement not allowed" `Quick test_replacement_not_allowed;
    Alcotest.test_case "stale old instance" `Quick test_stale_old_instance;
  ]
