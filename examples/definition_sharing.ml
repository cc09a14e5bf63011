(* Sharing view-object definitions between sites.

   "A view object is an uninstantiated window onto the underlying
   database; that is, only its definition is saved while base data
   remains stored in the relational database." This example plays both
   sides of that arrangement:

   - site A defines the schema, the objects and their translators, and
     exports the definitions (no data) to a file;
   - site B imports the definitions, bulk-loads its own base data from
     CSV, builds connection indexes, and works through the objects —
     queries in OQL, updates in the update language.

   Run with: dune exec examples/definition_sharing.exe *)

open Relational
open Viewobject
open Penguin

let section title = Fmt.pr "@.=== %s ===@." title

let or_die = function
  | Ok v -> v
  | Error e -> Fmt.failwith "definition_sharing: %s" e

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
  section "Site A: define and export (definitions only)";
  let site_a = University.workspace () in
  let path = Filename.temp_file "penguin_defs" ".pws" in
  or_die (Result.map_error Error.to_string (Store.save_file ~include_data:false site_a path));
  Fmt.pr "definitions exported to %s (%d bytes)@." path
    (String.length (Store.save ~include_data:false site_a));

  section "Site B: import the definitions";
  let site_b = or_die (Store.load_file path) in
  Sys.remove path;
  Fmt.pr "objects available: %s@."
    (String.concat ", " (List.map fst site_b.Workspace.objects));
  Fmt.pr "base data: %d tuple(s) (none — only definitions travel)@."
    (Database.total_tuples site_b.Workspace.db);

  section "Site B: bulk-load its own data from CSV";
  let load_csv db name csv =
    let schema = Relation.schema (Database.relation_exn db name) in
    let loaded = or_die (Csv.load schema csv) in
    Relation.fold
      (fun t db ->
        match Database.insert db name t with
        | Ok db -> db
        | Error e -> Fmt.failwith "load %s: %s" name (Database.error_to_string e))
      loaded db
  in
  let db = site_b.Workspace.db in
  let db =
    load_csv db "DEPARTMENT"
      "dept_name,building,budget\nMarine Biology,Reef Hall,900000\nAstronomy,Dome,1200000\n"
  in
  let db =
    load_csv db "PEOPLE"
      "pid,name,dept_name\n1,Nina Nerin,Marine Biology\n2,Orla Orr,Astronomy\n3,Pete Poe,Marine Biology\n"
  in
  let db =
    load_csv db "STUDENT" "pid,degree_program,year\n1,MS MarBio,1\n3,PhD MarBio,3\n"
  in
  let db = load_csv db "FACULTY" "pid,rank,office\n2,Professor,D-1\n" in
  let db =
    load_csv db "COURSES"
      "course_id,title,units,level,dept_name\nMB200,Coral Ecology,4,grad,Marine \
       Biology\nASTRO10,Intro Astronomy,3,undergrad,Astronomy\n"
  in
  let db =
    load_csv db "GRADES" "course_id,pid,grade\nMB200,1,A\nMB200,3,A-\nASTRO10,1,B\n"
  in
  let db =
    load_csv db "CURRICULUM"
      "degree,course_id,requirement\nMS MarBio,MB200,core\n"
  in
  let site_b = Workspace.with_db site_b db in
  or_die (Workspace.check_consistency site_b);
  Fmt.pr "loaded %d tuple(s); database consistent@."
    (Database.total_tuples site_b.Workspace.db);

  section "Site B: query";
  let grads =
    or_die (Workspace.oql site_b "omega" "level = 'grad' and count(GRADES) >= 2")
  in
  List.iter (fun i -> Fmt.pr "%s" (Instance.to_ascii i)) grads;

  section "Site B: update through the shared object";
  let site_b =
    update site_b "set GRADES[pid = 3] grade = 'A' where course_id = 'MB200'"
  in
  or_die (Workspace.check_consistency site_b);

  section "Site B: the paper's translator still applies";
  (* omega carries the Section 6 translator through the export: renaming
     a course into an existing id needs the merge permission the DBA
     denied at site A *)
  let _site_b =
    update site_b "set course_id = 'ASTRO10' where course_id = 'MB200'"
  in
  Fmt.pr "@.definition sharing complete.@."
