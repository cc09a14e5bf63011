(* End-to-end property tests: randomly generated view-object updates must
   preserve the structural model's invariants, and inverse update pairs
   must compose to the identity on the database. *)
open Relational
open Structural
open Viewobject
open Test_util

let g = Penguin.University.graph
let omega = Penguin.University.omega
let spec = Penguin.University.omega_translator
let base_db = Penguin.University.seeded_db ()

(* Generator for fresh course instances over the seeded database. *)
let course_gen =
  QCheck.Gen.(
    let* suffix = int_range 100 999 in
    let* units = int_range 1 6 in
    let* level = oneofl [ "grad"; "undergrad" ] in
    let* dept =
      oneofl [ "Computer Science"; "Mathematics"; "Electrical Engineering" ]
    in
    let* grade_pids = oneof [ return []; list_size (int_range 1 4) (int_range 1 6) ] in
    let grade_pids = List.sort_uniq compare grade_pids in
    let id = Fmt.str "CSX%d" suffix in
    let students pid =
      (* pids 1-6 exist in STUDENT with known programs; reuse them *)
      [ Instance.leaf ~label:"STUDENT#2" ~relation:"STUDENT"
          (Tuple.make [ "pid", Value.Int pid ]) ]
    in
    let grades =
      List.map
        (fun pid ->
          Instance.make ~label:"GRADES" ~relation:"GRADES"
            ~tuple:(Tuple.make [ "pid", Value.Int pid; "grade", Value.Str "A" ])
            ~children:[ "STUDENT#2", students pid ])
        grade_pids
    in
    return
      (Instance.make ~label:"COURSES" ~relation:"COURSES"
         ~tuple:
           (Tuple.make
              [ "course_id", Value.Str id; "title", Value.Str ("T" ^ id);
                "units", Value.Int units; "level", Value.Str level ])
         ~children:
           [ "DEPARTMENT",
             [ Instance.leaf ~label:"DEPARTMENT" ~relation:"DEPARTMENT"
                 (Tuple.make [ "dept_name", Value.Str dept ]) ];
             "GRADES", grades ]))

let course_arb =
  QCheck.make ~print:(fun i -> Instance.to_ascii i) course_gen

let consistent db = Integrity.check g db = []

let prop_insert_preserves_consistency =
  QCheck.Test.make ~name:"VO-CI preserves global consistency" ~count:60
    course_arb
    (fun inst ->
      match
        (Vo_core.Engine.apply g base_db omega spec (Vo_core.Request.insert inst))
          .Vo_core.Engine.result
      with
      | Transaction.Committed db -> consistent db
      | Transaction.Rolled_back _ -> true)

let prop_insert_then_delete_is_identity =
  QCheck.Test.make ~name:"insert;delete returns the original database"
    ~count:60 course_arb
    (fun inst ->
      match
        (Vo_core.Engine.apply g base_db omega spec (Vo_core.Request.insert inst))
          .Vo_core.Engine.result
      with
      | Transaction.Rolled_back _ -> true
      | Transaction.Committed db1 -> (
          let course_id = Tuple.get inst.Instance.tuple "course_id" in
          let stored =
            List.find
              (fun (i : Instance.t) ->
                Value.equal (Tuple.get i.Instance.tuple "course_id") course_id)
              (Instantiate.instantiate db1 omega)
          in
          match
            (Vo_core.Engine.apply g db1 omega spec (Vo_core.Request.delete stored))
              .Vo_core.Engine.result
          with
          | Transaction.Committed db2 -> Database.equal base_db db2
          | Transaction.Rolled_back _ -> false))

let prop_double_insert_rejected =
  QCheck.Test.make ~name:"re-inserting the stored instance is rejected"
    ~count:40 course_arb
    (fun inst ->
      match
        (Vo_core.Engine.apply g base_db omega spec (Vo_core.Request.insert inst))
          .Vo_core.Engine.result
      with
      | Transaction.Rolled_back _ -> true
      | Transaction.Committed db1 -> (
          let course_id = Tuple.get inst.Instance.tuple "course_id" in
          let stored =
            List.find
              (fun (i : Instance.t) ->
                Value.equal (Tuple.get i.Instance.tuple "course_id") course_id)
              (Instantiate.instantiate db1 omega)
          in
          match
            (Vo_core.Engine.apply g db1 omega spec (Vo_core.Request.insert stored))
              .Vo_core.Engine.result
          with
          | Transaction.Rolled_back _ -> true
          | Transaction.Committed _ -> false))

let rename_gen =
  QCheck.Gen.(
    let* existing = oneofl [ "CS345"; "CS101"; "MATH51"; "EE280" ] in
    let* suffix = int_range 100 999 in
    return (existing, Fmt.str "NEW%d" suffix))

let prop_key_replacement_preserves_consistency =
  QCheck.Test.make ~name:"VO-R key replacement preserves consistency"
    ~count:40
    (QCheck.make rename_gen)
    (fun (old_id, new_id) ->
      let old_i =
        List.hd
          (Instantiate.instantiate
             ~where:(Predicate.eq_str "course_id" old_id)
             base_db omega)
      in
      let new_i =
        Instance.with_tuple old_i
          (Tuple.set old_i.Instance.tuple "course_id" (Value.Str new_id))
      in
      match
        (Vo_core.Engine.apply g base_db omega spec
           (Vo_core.Request.replace ~old_instance:old_i ~new_instance:new_i))
          .Vo_core.Engine.result
      with
      | Transaction.Committed db ->
          consistent db
          && (not
                (Relation.mem_key (Database.relation_exn db "COURSES")
                   [ Value.Str old_id ]))
          && Relation.mem_key (Database.relation_exn db "COURSES")
               [ Value.Str new_id ]
      | Transaction.Rolled_back _ -> false)

let prop_nonkey_replacement_count_stable =
  QCheck.Test.make ~name:"VO-R nonkey replacement keeps tuple counts"
    ~count:40
    (QCheck.make QCheck.Gen.(pair (oneofl [ "CS345"; "CS101"; "EE280" ]) (int_range 1 9)))
    (fun (id, units) ->
      let old_i =
        List.hd
          (Instantiate.instantiate ~where:(Predicate.eq_str "course_id" id)
             base_db omega)
      in
      let new_i =
        Instance.with_tuple old_i
          (Tuple.set old_i.Instance.tuple "units" (Value.Int units))
      in
      match
        (Vo_core.Engine.apply g base_db omega spec
           (Vo_core.Request.replace ~old_instance:old_i ~new_instance:new_i))
          .Vo_core.Engine.result
      with
      | Transaction.Committed db ->
          consistent db
          && Database.total_tuples db = Database.total_tuples base_db
      | Transaction.Rolled_back _ -> false)

let prop_deletion_removes_island_only =
  QCheck.Test.make ~name:"VO-CD touches island + referencing relations only"
    ~count:20
    (QCheck.make QCheck.Gen.(oneofl [ "CS345"; "CS101"; "MATH51"; "EE280" ]))
    (fun id ->
      let i =
        List.hd
          (Instantiate.instantiate ~where:(Predicate.eq_str "course_id" id)
             base_db omega)
      in
      match Vo_core.Vo_cd.translate g base_db omega spec i with
      | Error _ -> false
      | Ok ops ->
          List.for_all
            (fun op ->
              List.mem (Op.relation op) [ "COURSES"; "GRADES"; "CURRICULUM" ])
            ops)

(* An update statement is one session: staged against [ws], committed
   whole or refused whole. *)
let run_stmt ws stmt =
  Result.bind
    (Penguin.Session.queue_stmt (Penguin.Session.begin_ ws) "omega" stmt)
    (Penguin.Session.commit ws)

(* Surface layers: random textual updates keep the database consistent,
   and JSON export of arbitrary stored instances is well-formed. *)
let prop_upql_updates_preserve_consistency =
  QCheck.Test.make ~name:"random upql updates preserve consistency" ~count:60
    (QCheck.make
       QCheck.Gen.(
         let* course = oneofl [ "CS345"; "CS101"; "MATH51"; "EE280" ] in
         let* pid = int_range 1 6 in
         let* grade = oneofl [ "A"; "B+"; "C"; "F" ] in
         let* units = int_range 1 9 in
         let* which = int_bound 2 in
         return (course, pid, grade, units, which)))
    (fun (course, pid, grade, units, which) ->
      let ws = Penguin.University.workspace () in
      let stmt =
        match which with
        | 0 -> Fmt.str "set units = %d where course_id = '%s'" units course
        | 1 ->
            Fmt.str "set GRADES[pid = %d] grade = '%s' where course_id = '%s'"
              pid grade course
        | _ -> Fmt.str "delete where course_id = '%s'" course
      in
      match run_stmt ws stmt with
      | Ok (ws', _stats) -> Result.is_ok (Penguin.Workspace.check_consistency ws')
      | Error (Penguin.Error.Invalid _) ->
          (* refused whole: nothing was written *)
          Result.is_ok (Penguin.Workspace.check_consistency ws)
      | Error _ -> false)

(* The one-transaction rule against the per-request pipeline: whenever a
   session commits a statement, its database is the one reached by
   folding [Workspace.update] over the statement's requests. Statements
   range over one or several instances (by course or by level). *)
let prop_statement_equals_request_fold =
  QCheck.Test.make
    ~name:"a committed statement equals folding Workspace.update over its requests"
    ~count:80
    (QCheck.make ~print:Fun.id
       QCheck.Gen.(
         let* target =
           oneof
             [ map (Fmt.str "course_id = '%s'")
                 (oneofl [ "CS345"; "CS101"; "MATH51"; "EE280" ]);
               map (Fmt.str "level = '%s'") (oneofl [ "grad"; "undergrad" ]);
               return "units >= 3" ]
         in
         let* pid = int_range 1 6 in
         let* grade = oneofl [ "A"; "B+"; "C"; "F" ] in
         let* units = int_range 1 9 in
         oneofl
           [ Fmt.str "set units = %d where %s" units target;
             Fmt.str "set GRADES[pid = %d] grade = '%s' where %s" pid grade target;
             Fmt.str "set DEPARTMENT.building = 'B%d' where %s" units target;
             Fmt.str "delete where %s" target;
             Fmt.str "set course_id = 'X%d' where %s" units target ]))
    (fun stmt ->
      let ws = Penguin.University.workspace () in
      match run_stmt ws stmt with
      | Error _ -> true
      | Ok (committed, _stats) ->
          let requests =
            check_ok (Penguin.Upql.requests ws ~object_name:"omega" stmt)
          in
          let folded =
            List.fold_left
              (fun ws r -> fst (Penguin.Workspace.update ws "omega" r))
              ws requests
          in
          Database.equal committed.Penguin.Workspace.db folded.Penguin.Workspace.db)

let json_balanced json =
  let depth = ref 0 and ok = ref true and in_str = ref false in
  String.iteri
    (fun idx c ->
      if !in_str then begin
        if c = '"' && json.[idx - 1] <> '\\' then in_str := false
      end
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    json;
  !ok && !depth = 0

let prop_json_wellformed =
  QCheck.Test.make ~name:"json export is balanced for random instances"
    ~count:60 course_arb
    (fun inst ->
      match
        (Vo_core.Engine.apply g base_db omega spec (Vo_core.Request.insert inst))
          .Vo_core.Engine.result
      with
      | Transaction.Rolled_back _ -> true
      | Transaction.Committed db1 ->
          List.for_all
            (fun i -> json_balanced (Penguin.Json_export.instance omega i))
            (Instantiate.instantiate db1 omega))

let prop_instance_sexp_roundtrip =
  QCheck.Test.make ~name:"random stored instances roundtrip through sexp"
    ~count:60 course_arb
    (fun inst ->
      match
        (Vo_core.Engine.apply g base_db omega spec (Vo_core.Request.insert inst))
          .Vo_core.Engine.result
      with
      | Transaction.Rolled_back _ -> true
      | Transaction.Committed db1 ->
          List.for_all
            (fun i ->
              match
                Penguin.Store.instance_of_string
                  (Relational.Sexp.to_string (Penguin.Store.instance_to_sexp i))
              with
              | Ok i' -> Instance.equal i i'
              | Error _ -> false)
            (Instantiate.instantiate db1 omega))

let suite =
  [
    qtest prop_upql_updates_preserve_consistency;
    qtest prop_statement_equals_request_fold;
    qtest prop_json_wellformed;
    qtest prop_instance_sexp_roundtrip;
    qtest prop_insert_preserves_consistency;
    qtest prop_insert_then_delete_is_identity;
    qtest prop_double_insert_rejected;
    qtest prop_key_replacement_preserves_consistency;
    qtest prop_nonkey_replacement_count_stable;
    qtest prop_deletion_removes_island_only;
  ]
