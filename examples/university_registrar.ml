(* The paper's running example, end to end: the university database of
   Figure 1, the view object omega of Figure 2(c), the Figure 4 query,
   the Section 6 translator dialog, and the EES345 replacement under both
   translators — followed by a complete registrar workflow (new course,
   grade changes, course deletion).

   Run with: dune exec examples/university_registrar.exe *)

open Relational
open Viewobject
open Penguin

let section title = Fmt.pr "@.=== %s ===@." title

let or_die = function
  | Ok v -> v
  | Error e -> Fmt.failwith "university_registrar: %s" e

(* One update statement is one session: staged against a snapshot of
   [ws], then committed whole or refused whole. *)
let update ws stmt =
  let committed =
    Result.bind (Session.queue_stmt (Session.begin_ ws) "omega" stmt)
      (fun sess ->
        List.iter
          (fun (st : Vo_core.Engine.staged) ->
            Fmt.pr "%s:@.%a@." st.request_kind Op.pp_list st.ops)
          (Session.staged sess);
        Session.commit ws sess)
  in
  match committed with
  | Ok (ws, stats) ->
      Fmt.pr "committed %d update(s)@." stats.Session.committed;
      ws
  | Error e ->
      Fmt.pr "refused (%s): %a@." (Error.kind e) Error.pp e;
      ws

let () =
  section "Figure 1: structural schema";
  Fmt.pr "%s@." (Paper.figure1 ());

  section "Figure 2: view-object generation";
  Fmt.pr "%s@." (Paper.figure2b ());
  Fmt.pr "%s@." (Paper.figure2c ());

  section "Figure 3: a different view of the database";
  Fmt.pr "%s@." (Paper.figure3 ());

  section "Figure 4: instantiation";
  Fmt.pr "%s@." (Paper.figure4 ());

  section "Section 6: choosing a translator by dialog";
  Fmt.pr "%s@." (Paper.section6_dialog ());

  section "Section 6: the EES345 replacement, both translators";
  Fmt.pr "%s@." (Paper.ees345_example ());

  section "Registrar workflow";
  let ws = University.workspace () in

  (* a) new course with enrollment, through the object *)
  let new_course =
    Instance.make ~label:"COURSES" ~relation:"COURSES"
      ~tuple:
        (Tuple.make
           [ "course_id", Value.Str "CS446"; "title", Value.Str "Data Visualization";
             "units", Value.Int 3; "level", Value.Str "grad" ])
      ~children:
        [
          "DEPARTMENT",
          [ Instance.leaf ~label:"DEPARTMENT" ~relation:"DEPARTMENT"
              (Tuple.make [ "dept_name", Value.Str "Computer Science";
                            "building", Value.Str "Gates" ]) ];
          "GRADES",
          [ Instance.make ~label:"GRADES" ~relation:"GRADES"
              ~tuple:(Tuple.make [ "pid", Value.Int 5; "grade", Value.Str "A" ])
              ~children:
                [ "STUDENT#2",
                  [ Instance.leaf ~label:"STUDENT#2" ~relation:"STUDENT"
                      (Tuple.make [ "pid", Value.Int 5 ]) ] ] ];
          "CURRICULUM",
          [ Instance.leaf ~label:"CURRICULUM" ~relation:"CURRICULUM"
              (Tuple.make [ "degree", Value.Str "MS CS"; "requirement", Value.Str "elective" ]) ];
        ]
  in
  let ws, outcome = Workspace.update ws "omega" (Vo_core.Request.insert new_course) in
  Fmt.pr "insert CS446:@.%a@." Vo_core.Engine.pp_outcome outcome;

  (* b) grade change via a partial update *)
  let cs446 =
    List.hd
      (or_die
         (Workspace.query ws "omega"
            (Vo_query.C_node ("COURSES", Predicate.eq_str "course_id" "CS446"))))
  in
  let request =
    or_die
      (Vo_core.Request.partial_modify cs446 ~label:"GRADES"
         ~at:(Tuple.make [ "pid", Value.Int 5 ])
         ~f:(fun t -> Tuple.set t "grade" (Value.Str "A+")))
  in
  let ws, outcome = Workspace.update ws "omega" request in
  Fmt.pr "grade change:@.%a@." Vo_core.Engine.pp_outcome outcome;

  (* c) the Figure 4 query again over the updated database *)
  let grads =
    or_die
      (Workspace.query ws "omega"
         (Vo_query.C_and
            ( Vo_query.C_node ("COURSES", Predicate.eq_str "level" "grad"),
              Vo_query.C_count (University.student_label, Predicate.Lt, 5) )))
  in
  Fmt.pr "graduate courses with <5 students now:@.";
  List.iter (fun i -> Fmt.pr "%s" (Instance.to_ascii i)) grads;

  (* d) retire the course: complete deletion cascades through the island
     and fixes the curriculum peninsula *)
  let cs446 =
    List.hd
      (or_die
         (Workspace.query ws "omega"
            (Vo_query.C_node ("COURSES", Predicate.eq_str "course_id" "CS446"))))
  in
  let ws, outcome = Workspace.update ws "omega" (Vo_core.Request.delete cs446) in
  Fmt.pr "retire CS446:@.%a@." Vo_core.Engine.pp_outcome outcome;
  or_die (Workspace.check_consistency ws);

  section "The same workflow in the textual languages";
  (* the Figure-4 query in OQL *)
  let grads =
    or_die (Workspace.oql ws "omega" "level = 'grad' and count(STUDENT#2) < 5")
  in
  Fmt.pr "oql> level = 'grad' and count(STUDENT#2) < 5@.";
  List.iter
    (fun (i : Instance.t) ->
      Fmt.pr "  -> %a@." Relational.Value.pp_plain
        (Relational.Tuple.get i.Instance.tuple "course_id"))
    grads;
  (* and the EES345 replacement as a single update statement *)
  let stmt =
    "set course_id = 'EES345', DEPARTMENT.dept_name = 'Engineering Economic \
     Systems', DEPARTMENT.building = null where course_id = 'CS345'"
  in
  Fmt.pr "@.upql> %s@." stmt;
  let ws = update ws stmt in
  or_die (Workspace.check_consistency ws);
  Fmt.pr "@.registrar workflow complete; database consistent.@."
