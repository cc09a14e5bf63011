open Relational
open Test_util

let ws () = Penguin.University.workspace ()

(* A statement is one session: staged against [ws], committed whole. *)
let run ?(object_name = "omega") ws stmt =
  Result.bind
    (Penguin.Session.queue_stmt (Penguin.Session.begin_ ws) object_name stmt)
    (Penguin.Session.commit ws)

let apply ws stmt =
  let ws', stats = check_ok_e (run ws stmt) in
  ws', stats.Penguin.Session.committed

(* The refusal of a statement that commits nothing, as text. *)
let refusal ?object_name ws stmt =
  Penguin.Error.to_string (check_err_e (run ?object_name ws stmt))

let course db id =
  Relation.lookup (Database.relation_exn db "COURSES") [ vs id ]

let test_set_pivot_attr () =
  let ws', committed = apply (ws ()) "set units = 4 where course_id = 'CS345'" in
  Alcotest.(check int) "one commit" 1 committed;
  Alcotest.check value_testable "units" (vi 4)
    (Tuple.get (Option.get (course ws'.Penguin.Workspace.db "CS345")) "units")

let test_set_selected_grade () =
  let ws', committed =
    apply (ws ()) "set GRADES[pid = 1] grade = 'A+' where course_id = 'CS345'"
  in
  Alcotest.(check int) "one commit" 1 committed;
  let g =
    Option.get
      (Relation.lookup
         (Database.relation_exn ws'.Penguin.Workspace.db "GRADES")
         [ vs "CS345"; vi 1 ])
  in
  Alcotest.check value_testable "grade" (vs "A+") (Tuple.get g "grade")

let test_set_singular_child () =
  (* DEPARTMENT is singular: no selector needed. *)
  let ws', _ =
    apply (ws ()) "set DEPARTMENT.building = 'Allen' where course_id = 'CS345'"
  in
  let d =
    Option.get
      (Relation.lookup
         (Database.relation_exn ws'.Penguin.Workspace.db "DEPARTMENT")
         [ vs "Computer Science" ])
  in
  Alcotest.check value_testable "building" (vs "Allen") (Tuple.get d "building")

let test_set_requires_selector_on_set_valued () =
  (* two grades match: ambiguous, refused before any db work *)
  let reason = refusal (ws ()) "set GRADES.grade = 'F' where course_id = 'CS345'" in
  Alcotest.(check bool) "mentions ambiguity" true
    (Relational.Strutil.contains ~sub:"be more specific" reason)

let test_ees345_in_upql () =
  (* the paper's Section 6 example, as one statement *)
  let ws', committed =
    apply (ws ())
      "set course_id = 'EES345', DEPARTMENT.dept_name = 'Engineering \
       Economic Systems', DEPARTMENT.building = null where course_id = 'CS345'"
  in
  Alcotest.(check int) "committed" 1 committed;
  let db = ws'.Penguin.Workspace.db in
  Alcotest.(check bool) "old gone" true (course db "CS345" = None);
  Alcotest.(check bool) "new there" true (course db "EES345" <> None);
  Alcotest.(check bool) "department inserted" true
    (Relation.mem_key (Database.relation_exn db "DEPARTMENT")
       [ vs "Engineering Economic Systems" ]);
  check_ok (Penguin.Workspace.check_consistency ws')

let test_delete_batch () =
  let ws', committed = apply (ws ()) "delete where level = 'undergrad'" in
  Alcotest.(check int) "two deletions" 2 committed;
  Alcotest.(check int) "two courses left" 2
    (Relation.cardinality (Database.relation_exn ws'.Penguin.Workspace.db "COURSES"));
  check_ok (Penguin.Workspace.check_consistency ws')

let test_delete_none () =
  let ws0 = ws () in
  let ws', committed = apply ws0 "delete where course_id = 'GHOST'" in
  Alcotest.(check int) "no updates" 0 committed;
  Alcotest.(check int) "no version taken" (Penguin.Workspace.version ws0)
    (Penguin.Workspace.version ws')

let test_detach () =
  let ws', committed =
    apply (ws ()) "detach GRADES[pid = 2] where course_id = 'CS345'"
  in
  Alcotest.(check int) "one commit" 1 committed;
  Alcotest.(check bool) "grade gone" false
    (Relation.mem_key
       (Database.relation_exn ws'.Penguin.Workspace.db "GRADES")
       [ vs "CS345"; vi 2 ]);
  Alcotest.(check bool) "other grade stays" true
    (Relation.mem_key
       (Database.relation_exn ws'.Penguin.Workspace.db "GRADES")
       [ vs "CS345"; vi 1 ])

let test_statement_is_one_transaction () =
  (* Renaming every grad course to the same id: each rename is valid
     against the snapshot, but the second collides with the first (the
     merge is denied by the paper's translator). The statement commits
     nothing, and the refusal is Invalid — deterministic, not a
     retryable conflict. *)
  let ws0 = ws () in
  let stmt = "set course_id = 'X1' where level = 'grad'" in
  match run ws0 stmt with
  | Ok _ -> Alcotest.fail "the colliding rename committed"
  | Error (Penguin.Error.Invalid reason) ->
      Alcotest.(check bool) "names the statement" true
        (Relational.Strutil.contains ~sub:stmt reason);
      Alcotest.(check bool) "gives the translator's reason" true
        (Relational.Strutil.contains ~sub:"merge with it is not allowed" reason);
      (* nothing was written: the run is a pure function of [ws0] *)
      Alcotest.(check bool) "CS345 kept" true
        (course ws0.Penguin.Workspace.db "CS345" <> None);
      Alcotest.(check bool) "no X1" true
        (course ws0.Penguin.Workspace.db "X1" = None)
  | Error e ->
      Alcotest.failf "expected Invalid, got %s: %s" (Penguin.Error.kind e)
        (Penguin.Error.to_string e)

let test_translator_gates_upql () =
  let ws0 = ws () in
  let ws0 =
    Penguin.Workspace.set_translator ws0 "omega"
      Penguin.University.omega_translator_restrictive
  in
  let reason =
    refusal ws0 "set DEPARTMENT.dept_name = 'Robotics' where course_id = 'CS345'"
  in
  Alcotest.(check bool) "restricted" true
    (Relational.Strutil.contains ~sub:"not allowed" reason)

let test_attach () =
  let ws', committed =
    apply (ws ()) "attach GRADES (pid = 5, grade = 'B') where course_id = 'CS345'"
  in
  Alcotest.(check int) "one commit" 1 committed;
  let g =
    Option.get
      (Relation.lookup
         (Database.relation_exn ws'.Penguin.Workspace.db "GRADES")
         [ vs "CS345"; vi 5 ])
  in
  Alcotest.check value_testable "grade" (vs "B") (Tuple.get g "grade");
  check_ok (Penguin.Workspace.check_consistency ws')

let test_attach_with_parent_selector () =
  let hws = Penguin.Hospital.workspace () in
  let hws', stats =
    check_ok_e
      (run ~object_name:"patient_record" hws
         (Fmt.str
            "attach %s (order_no = 9, drug = 'aspirin', dose = 100, \
             prescriber = 101) in %s[visit_no = 1] where mrn = 7001"
            Penguin.Hospital.orders_label Penguin.Hospital.visit_label))
  in
  Alcotest.(check int) "one commit" 1 stats.Penguin.Session.committed;
  Alcotest.(check bool) "order stored under visit 1" true
    (Relation.mem_key
       (Database.relation_exn hws'.Penguin.Workspace.db "ORDERS")
       [ vi 7001; vi 1; vi 9 ]);
  check_ok (Penguin.Workspace.check_consistency hws')

let test_attach_requires_parent_selector_when_ambiguous () =
  (* patient 7001 has two visits: the parent occurrence is ambiguous *)
  let reason =
    refusal ~object_name:"patient_record" (Penguin.Hospital.workspace ())
      (Fmt.str
         "attach %s (order_no = 9, drug = 'aspirin', dose = 100, \
          prescriber = 101) where mrn = 7001"
         Penguin.Hospital.orders_label)
  in
  Alcotest.(check bool) "ambiguous parent" true
    (Relational.Strutil.contains ~sub:"be more specific" reason)

let test_attach_errors () =
  let vo = Penguin.University.omega in
  check_err_contains ~sub:"it is the pivot"
    (Penguin.Upql.parse vo "attach COURSES (course_id = 'X') where true");
  check_err_contains ~sub:"does not project"
    (Penguin.Upql.parse vo "attach GRADES (title = 'x') where true");
  check_err_contains ~sub:"the parent of"
    (Penguin.Upql.parse vo
       "attach GRADES (pid = 1, grade = 'A') in DEPARTMENT[dept_name = 'x'] \
        where true")

let test_parse_errors () =
  let vo = Penguin.University.omega in
  check_err_contains ~sub:"delete, set, attach or detach" (Penguin.Upql.parse vo "frob x");
  check_err_contains ~sub:"expected keyword where"
    (Penguin.Upql.parse vo "set units = 4");
  check_err_contains ~sub:"no node" (Penguin.Upql.parse vo "detach GHOST[x = 1] where true");
  check_err_contains ~sub:"does not project"
    (Penguin.Upql.parse vo "set GRADES[pid = 1] title = 'x' where true");
  check_err_contains ~sub:"ambiguous" (Penguin.Upql.parse vo "set pid = 9 where true");
  check_err_contains ~sub:"end of statement"
    (Penguin.Upql.parse vo "delete where true true")

let test_pp_statement () =
  let vo = Penguin.University.omega in
  let stmt = check_ok (Penguin.Upql.parse vo "set units = 4 where level = 'grad'") in
  Alcotest.(check bool) "prints" true
    (String.length (Fmt.str "%a" Penguin.Upql.pp_statement stmt) > 0)

let test_hospital_upql () =
  let ws', stats =
    check_ok_e
      (run ~object_name:"patient_record" (Penguin.Hospital.workspace ())
         (Fmt.str "set %s[order_no = 2] dose = 75 where mrn = 7001"
            Penguin.Hospital.orders_label))
  in
  Alcotest.(check int) "one commit" 1 stats.Penguin.Session.committed;
  let o =
    Option.get
      (Relation.lookup
         (Database.relation_exn ws'.Penguin.Workspace.db "ORDERS")
         [ vi 7001; vi 1; vi 2 ])
  in
  Alcotest.check value_testable "dose" (vi 75) (Tuple.get o "dose")

let suite =
  [
    Alcotest.test_case "set pivot attr" `Quick test_set_pivot_attr;
    Alcotest.test_case "set selected grade" `Quick test_set_selected_grade;
    Alcotest.test_case "set singular child" `Quick test_set_singular_child;
    Alcotest.test_case "selector required" `Quick test_set_requires_selector_on_set_valued;
    Alcotest.test_case "EES345 in upql" `Quick test_ees345_in_upql;
    Alcotest.test_case "delete batch" `Quick test_delete_batch;
    Alcotest.test_case "delete none" `Quick test_delete_none;
    Alcotest.test_case "detach" `Quick test_detach;
    Alcotest.test_case "a statement is one transaction" `Quick
      test_statement_is_one_transaction;
    Alcotest.test_case "translator gates" `Quick test_translator_gates_upql;
    Alcotest.test_case "attach" `Quick test_attach;
    Alcotest.test_case "attach with parent selector" `Quick test_attach_with_parent_selector;
    Alcotest.test_case "attach ambiguous parent" `Quick test_attach_requires_parent_selector_when_ambiguous;
    Alcotest.test_case "attach errors" `Quick test_attach_errors;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "pp" `Quick test_pp_statement;
    Alcotest.test_case "hospital" `Quick test_hospital_upql;
  ]
