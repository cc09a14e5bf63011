(* Synthetic workload generators for the benchmark harness (EXPERIMENTS.md).

   All generators are deterministic: benchmarks must measure the
   algorithms, not the random-number generator. *)

open Relational
open Structural
open Viewobject

(* Connection indexes are built with the database ({!Schema_graph}), so
   every generator below hands them out by default. Rebuilding each
   relation from its bare tuples sheds them — the honest baseline for
   the E4 index ablation. *)
let strip_indexes db =
  List.fold_left
    (fun acc name ->
      let r = Database.relation_exn db name in
      let acc = Database.create_relation_exn acc (Relation.schema r) in
      Relation.fold
        (fun t acc ->
          match Database.insert acc name t with
          | Ok acc -> acc
          | Error e -> invalid_arg (Database.error_to_string e))
        r acc)
    Database.empty (Database.relation_names db)

(* --- chain schemas: R0 --* R1 --* ... --* R(n-1) --------------------- *)

let chain_relation i =
  let key = List.init (i + 1) (fun j -> Fmt.str "id%d" j) in
  let attributes =
    List.map Attribute.int key @ [ Attribute.str (Fmt.str "payload%d" i) ]
  in
  Schema.make_exn ~name:(Fmt.str "R%d" i) ~attributes ~key

let chain_graph n =
  let schemas = List.init n chain_relation in
  let conns =
    List.init (n - 1) (fun i ->
        let shared = List.init (i + 1) (fun j -> Fmt.str "id%d" j) in
        Connection.ownership (Fmt.str "R%d" i)
          (Fmt.str "R%d" (i + 1))
          ~on:(shared, shared))
  in
  Schema_graph.make_exn schemas conns

(* Star schema: one pivot referencing [n] dimension relations — used for
   dialog-size and metric sweeps. *)
let star_graph n =
  let dim i =
    Schema.make_exn ~name:(Fmt.str "D%d" i)
      ~attributes:[ Attribute.int (Fmt.str "d%d" i); Attribute.str "label" ]
      ~key:[ Fmt.str "d%d" i ]
  in
  let pivot =
    Schema.make_exn ~name:"PIVOT"
      ~attributes:
        (Attribute.int "pk" :: List.init n (fun i -> Attribute.int (Fmt.str "d%d" i)))
      ~key:[ "pk" ]
  in
  let conns =
    List.init n (fun i ->
        Connection.reference "PIVOT" (Fmt.str "D%d" i)
          ~on:([ Fmt.str "d%d" i ], [ Fmt.str "d%d" i ]))
  in
  Schema_graph.make_exn (pivot :: List.init n dim) conns

(* Populate a chain graph with [fanout] children per tuple down to the
   last level; returns the database and the full object instance rooted
   at R0's single tuple. *)
let populate_chain g ~depth ~fanout =
  let db = Schema_graph.create_database g in
  let rec insert_level db level key_prefix =
    if level >= depth then db
    else
      let indices = if level = 0 then [ 0 ] else List.init fanout (fun i -> i) in
      List.fold_left
        (fun db i ->
          let key = key_prefix @ [ i ] in
          let bindings =
            List.mapi (fun j v -> Fmt.str "id%d" j, Value.Int v) key
            @ [ Fmt.str "payload%d" level, Value.Str (Fmt.str "p%d" i) ]
          in
          let db =
            match Database.insert db (Fmt.str "R%d" level) (Tuple.make bindings) with
            | Ok db -> db
            | Error e -> invalid_arg (Database.error_to_string e)
          in
          insert_level db (level + 1) key)
        db indices
  in
  insert_level db 0 []

let chain_object g =
  match
    Viewobject.Generate.full (Metric.make ~threshold:0.01 ()) g ~name:"chain"
      ~pivot:"R0"
  with
  | Ok vo -> vo
  | Error e -> invalid_arg e

let chain_instance db vo =
  match Instantiate.instantiate db vo with
  | [ i ] -> i
  | l -> invalid_arg (Fmt.str "chain_instance: %d instances" (List.length l))

(* --- university with synthetic enrollment -------------------------- *)

(* A university database where course BENCH1 has [g] enrolled students. *)
let enrollment_db g =
  let db = Penguin.University.seeded_db () in
  let db =
    match
      Database.insert db "COURSES"
        (Tuple.make
           [ "course_id", Value.Str "BENCH1"; "title", Value.Str "Bench";
             "units", Value.Int 3; "level", Value.Str "grad";
             "dept_name", Value.Str "Computer Science" ])
    with
    | Ok db -> db
    | Error e -> invalid_arg (Database.error_to_string e)
  in
  let rec add db i =
    if i > g then db
    else
      let pid = 1000 + i in
      let ins rel bindings db =
        match Database.insert db rel (Tuple.make bindings) with
        | Ok db -> db
        | Error e -> invalid_arg (Database.error_to_string e)
      in
      let db =
        db
        |> ins "PEOPLE"
             [ "pid", Value.Int pid; "name", Value.Str (Fmt.str "S%d" i);
               "dept_name", Value.Str "Computer Science" ]
        |> ins "STUDENT"
             [ "pid", Value.Int pid; "degree_program", Value.Str "MS CS";
               "year", Value.Int ((i mod 4) + 1) ]
        |> ins "GRADES"
             [ "course_id", Value.Str "BENCH1"; "pid", Value.Int pid;
               "grade", Value.Str "A" ]
      in
      add db (i + 1)
  in
  add db 1

(* A university database where [n] curriculum rows reference CS345 —
   peninsula fix-up scaling for VO-R. *)
let curriculum_db n =
  let db = Penguin.University.seeded_db () in
  let rec add db i =
    if i > n then db
    else
      match
        Database.insert db "CURRICULUM"
          (Tuple.make
             [ "degree", Value.Str (Fmt.str "DEG%d" i);
               "course_id", Value.Str "CS345";
               "requirement", Value.Str "elective" ])
      with
      | Ok db -> add db (i + 1)
      | Error e -> invalid_arg (Database.error_to_string e)
  in
  add db 1

let bench1_instance db =
  match
    Instantiate.instantiate
      ~where:(Predicate.eq_str "course_id" "BENCH1")
      db Penguin.University.omega
  with
  | [ i ] -> i
  | _ -> invalid_arg "bench1_instance"

(* --- E10: group-commit workload ------------------------------------ *)

(* A university database with [n] extra one-student courses
   BENCH001..BENCH<n>: course [i] has student pid 2000+i enrolled with
   grade "A". Requests on distinct courses touch disjoint instances, so
   a batch of them can be served one-at-a-time against the evolving
   state or staged together from one snapshot. *)
let courses_db n =
  let db = Penguin.University.seeded_db () in
  let ins rel bindings db =
    match Database.insert db rel (Tuple.make bindings) with
    | Ok db -> db
    | Error e -> invalid_arg (Database.error_to_string e)
  in
  let rec add db i =
    if i > n then db
    else
      let course = Fmt.str "BENCH%03d" i in
      let pid = 2000 + i in
      db
      |> ins "COURSES"
           [ "course_id", Value.Str course; "title", Value.Str (Fmt.str "Bench %d" i);
             "units", Value.Int 3; "level", Value.Str "grad";
             "dept_name", Value.Str "Computer Science" ]
      |> ins "PEOPLE"
           [ "pid", Value.Int pid; "name", Value.Str (Fmt.str "S%d" i);
             "dept_name", Value.Str "Computer Science" ]
      |> ins "STUDENT"
           [ "pid", Value.Int pid; "degree_program", Value.Str "MS CS";
             "year", Value.Int ((i mod 4) + 1) ]
      |> ins "GRADES"
           [ "course_id", Value.Str course; "pid", Value.Int pid;
             "grade", Value.Str "A" ]
      |> fun db -> add db (i + 1)
  in
  add db 1

(* The serve-path benchmark's store shape: the university workspace plus
   [courses] courses [C00000 ...], each graded for the same [fanout]
   students [5000 ...]. *)
let graded_workspace ~courses ~fanout =
  let ins rel bindings db =
    match Database.insert db rel (Tuple.make bindings) with
    | Ok db -> db
    | Error e -> invalid_arg (Database.error_to_string e)
  in
  let ws = Penguin.University.workspace () in
  let student j = Value.Int (5000 + j) in
  let course i = Value.Str (Fmt.str "C%05d" i) in
  let db =
    List.fold_left
      (fun db j ->
        db
        |> ins "PEOPLE"
             [ "pid", student j; "name", Value.Str (Fmt.str "S%d" j);
               "dept_name", Value.Str "Computer Science" ]
        |> ins "STUDENT"
             [ "pid", student j; "degree_program", Value.Str "MS CS";
               "year", Value.Int ((j mod 4) + 1) ])
      ws.Penguin.Workspace.db (List.init fanout Fun.id)
  in
  let db =
    List.fold_left
      (fun db i ->
        let db =
          ins "COURSES"
            [ "course_id", course i; "title", Value.Str (Fmt.str "Bench %d" i);
              "units", Value.Int 3; "level", Value.Str "grad";
              "dept_name", Value.Str "Computer Science" ]
            db
        in
        List.fold_left
          (fun db j ->
            ins "GRADES"
              [ "course_id", course i; "pid", student j; "grade", Value.Str "A" ]
              db)
          db (List.init fanout Fun.id))
      db (List.init courses Fun.id)
  in
  { ws with Penguin.Workspace.db }

(* The serve-path benchmark's write: one grade of one course. *)
let grade_stmt ~course ~slot ~grade =
  Fmt.str "set GRADES[pid = %d] grade = '%s' where course_id = 'C%05d'"
    (5000 + slot) grade course

let course_instance db i =
  match
    Instantiate.instantiate
      ~where:(Predicate.eq_str "course_id" (Fmt.str "BENCH%03d" i))
      db Penguin.University.omega
  with
  | [ inst ] -> inst
  | l -> invalid_arg (Fmt.str "course_instance %d: %d instances" i (List.length l))

(* One grade change on course [course] (re-reading the instance from
   [db], so the request is fresh against it); [tag] disambiguates the
   new grade so retried requests stay distinguishable. *)
let grade_change_request db ~course ~tag =
  let inst = course_instance db course in
  match
    Vo_core.Request.partial_modify inst ~label:"GRADES"
      ~at:(Tuple.make [ "pid", Value.Int (2000 + course) ])
      ~f:(fun t -> Tuple.set t "grade" (Value.Str (Fmt.str "B%d" tag)))
  with
  | Ok r -> r
  | Error e -> invalid_arg e

(* A batch of [n] grade changes, request [j] on course [j+1] — pairwise
   disjoint — except the first [colliding] requests, all redirected to
   course 1: those write the same GRADES key and conflict pairwise. *)
let grade_change_requests db ~n ~colliding =
  List.init n (fun j ->
      grade_change_request db
        ~course:(if j < colliding then 1 else j + 1)
        ~tag:j)

(* --- flat-view counterpart for the E8 baseline --------------------- *)

(* The flat SPJ view joining COURSES and GRADES, projecting enough to
   identify both base tuples — Keller's setting for the same logical
   update omega expresses hierarchically. *)
let flat_course_view db =
  Keller.View.make_exn db ~name:"course_grades_flat"
    ~relations:[ "COURSES"; "GRADES" ]
    ~selection:Relational.Predicate.True
    ~projection:[ "course_id"; "title"; "units"; "level"; "pid"; "grade" ]

let mini_omega =
  (* COURSES + GRADES only: the hierarchical twin of the flat view. *)
  let tree =
    Viewobject.Generate.tree Metric.default Penguin.University.graph
      ~pivot:"COURSES"
  in
  match
    Viewobject.Generate.prune Penguin.University.graph tree ~name:"mini"
      ~keep:[ "COURSES", []; "GRADES", [ "pid"; "grade" ] ]
  with
  | Ok vo -> vo
  | Error e -> invalid_arg e
