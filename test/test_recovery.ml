(* Crash recovery.

   The crash sweep runs a durable action on the disk model (Test_disk)
   and kills the "process" (raises Test_disk.Crash) at its N-th write,
   fsync, rename or remove: before the operation, part way through a
   write, or just after the operation. Enumerating N over every such
   point of a durable commit — journal append, fsync, tmp-file writes,
   renames, directory fsyncs, rotation — and recovering with
   Recovery.open_store twice after each crash, from what the killed
   process left and then from what a power loss leaves, proves the
   invariant: the recovered workspace equals either the pre-commit or
   the post-commit state, never a torn mixture, and always satisfies the
   structural model. *)
open Relational
open Viewobject
open Test_util

module D = Test_disk

let flavor_name = function
  | `Before -> "before"
  | `Torn -> "torn"
  | `After -> "after"

(* --- a workspace, its edits, and a durable commit --------------------- *)

let instance_of ws course =
  let vo = check_ok (Penguin.Workspace.find_object ws "omega") in
  match
    Instantiate.instantiate
      ~where:(Predicate.eq_str "course_id" course)
      ws.Penguin.Workspace.db vo
  with
  | [ i ] -> i
  | l -> Alcotest.failf "expected 1 instance of %s, got %d" course (List.length l)

let grade_edit ws (course, pid) grade =
  check_ok
    (Vo_core.Request.partial_modify (instance_of ws course) ~label:"GRADES"
       ~at:(Tuple.make [ "pid", Value.Int pid ])
       ~f:(fun t -> Tuple.set t "grade" (Value.Str grade)))

let grade_of ws (course, pid) =
  let r = Database.relation_exn ws.Penguin.Workspace.db "GRADES" in
  match Relation.lookup r [ Value.Str course; Value.Int pid ] with
  | Some t -> Tuple.get t "grade"
  | None -> Alcotest.failf "no GRADES (%s, %d)" course pid

let store_in dir = Filename.concat dir "store.pgn"

let read_raw ?(io = Penguin.Fsio.default) path =
  match io.Penguin.Fsio.read path with
  | Ok (Some s) -> s
  | Ok None -> Alcotest.failf "%s: no such file" path
  | Error e -> Alcotest.failf "%s: %s" path (Penguin.Error.to_string e)

let make_store ?io dir =
  let ws = Penguin.University.workspace () in
  check_ok_e (Penguin.Store.save_file ?io ws (store_in dir))

let apply_edit ws enrolment grade =
  let ws', outcome = Penguin.Workspace.update ws "omega" (grade_edit ws enrolment grade) in
  (match outcome.Vo_core.Engine.result with
  | Transaction.Committed _ -> ()
  | Transaction.Rolled_back { reason; _ } -> Alcotest.failf "update: %s" reason);
  ws'

(* One durable commit, the way the CLI does it: recover the current
   state, translate and apply an update, persist the new commits. *)
let commit_grade ~io dir enrolment grade =
  let ( let* ) = Result.bind in
  let store = store_in dir in
  let* ws, report = Penguin.Recovery.open_store ~io store in
  let ws' = apply_edit ws enrolment grade in
  let* _rotated =
    Penguin.Recovery.persist ~io
      ~snapshot_bytes:report.Penguin.Recovery.snapshot_bytes ~store
      ~since:(Penguin.Workspace.version ws) ws'
  in
  Ok ()

(* A grade as long as the store's snapshot: a commit that sets it
   appends a record longer than the snapshot, which brings the journal
   to the snapshot's size, so that commit rotates the journal. *)
let rotating_grade ?io dir =
  String.make (String.length (read_raw ?io (store_in dir))) 'R'

let recover ?io dir =
  let ws, report = check_ok_e (Penguin.Recovery.open_store ?io (store_in dir)) in
  check_ok ~msg:"recovered state is consistent" (Penguin.Workspace.check_consistency ws);
  ws, report

(* --- the crash-recovery property -------------------------------------- *)

(* Run [action] on the disk model with a crash at every injection point
   (every operation, every flavor), recovering from the killed process's
   files and then from a power loss's after each crash; [action] run to
   the end defines the post state. *)
let assert_crash_recoverable ?(min_injections = 10) ~setup ~action () =
  let fresh ?seed () =
    let d = D.mem ?seed () in
    setup ~io:(D.io d) ".";
    d, D.io d
  in
  (* Reference states. *)
  let pre_ws, post_ws =
    let _, io = fresh () in
    let pre, _ = recover ~io "." in
    check_ok_e (action ~io ".");
    let post, _ = recover ~io "." in
    pre, post
  in
  Alcotest.(check bool) "the action changes the state" false
    (Database.equal pre_ws.Penguin.Workspace.db post_ws.Penguin.Workspace.db);
  let check_recovered ~ctx io =
    let ws, _report = recover ~io "." in
    let db = ws.Penguin.Workspace.db in
    let v = Penguin.Workspace.version ws in
    let is_pre =
      Database.equal db pre_ws.Penguin.Workspace.db
      && v = Penguin.Workspace.version pre_ws
    in
    let is_post =
      Database.equal db post_ws.Penguin.Workspace.db
      && v = Penguin.Workspace.version post_ws
    in
    if not (is_pre || is_post) then
      Alcotest.failf
        "%s: recovered state (v%d) is neither the pre-crash (v%d) nor the \
         post-crash (v%d) state"
        ctx v
        (Penguin.Workspace.version pre_ws)
        (Penguin.Workspace.version post_ws)
  in
  let injections = ref 0 in
  List.iter
    (fun flavor ->
      let rec go k =
        if k > 100 then
          Alcotest.fail "fault enumeration did not terminate by fuse 100"
        else begin
          let d, io = fresh ~seed:k () in
          D.set_schedule d (D.Nth (k, D.Crash_at flavor));
          match action ~io "." with
          | exception D.Crash ->
              incr injections;
              let ctx = Fmt.str "crash %s op %d" (flavor_name flavor) k in
              check_recovered ~ctx io;
              D.crash d;
              check_recovered ~ctx:(ctx ^ ", then power loss") io;
              go (k + 1)
          | Ok () ->
              (* The fuse outlived the operation count: every injection
                 point of this flavor has been exercised. A returned
                 action is durable: a power loss keeps its post state. *)
              D.crash d;
              let ws, _ = recover ~io "." in
              Alcotest.(check int) "completed, then power loss: the post version"
                (Penguin.Workspace.version post_ws) (Penguin.Workspace.version ws);
              Alcotest.(check bool) "completed, then power loss: the post state" true
                (Database.equal ws.Penguin.Workspace.db post_ws.Penguin.Workspace.db)
          | Error e ->
              Alcotest.failf "action failed without crashing: %s"
                (Penguin.Error.to_string e)
        end
      in
      go 1)
    [ `Before; `Torn; `After ];
  if !injections < min_injections then
    Alcotest.failf "suspiciously few injection points: %d" !injections

let test_crash_during_first_commit () =
  assert_crash_recoverable
    ~setup:(fun ~io dir -> make_store ~io dir)
    ~action:(fun ~io dir -> commit_grade ~io dir ("CS345", 2) "A-")
    ()

let primed ~io dir =
  make_store ~io dir;
  check_ok_e (commit_grade ~io dir ("EE280", 1) "C")

let test_crash_during_append_to_existing_journal () =
  (* The journal already exists, so the commit is one directory fsync
     (the writer makes the journal's name durable), one record write
     and one fsync: 3 injection points per flavor. *)
  assert_crash_recoverable ~min_injections:9 ~setup:primed
    ~action:(fun ~io dir -> commit_grade ~io dir ("CS345", 2) "A-")
    ()

let test_crash_during_rotate () =
  assert_crash_recoverable ~setup:primed
    ~action:(fun ~io dir ->
      (* A record longer than the snapshot: the append is followed by
         folding the whole journal into a fresh snapshot — tmp writes,
         fsyncs and renames on both the store and the journal. *)
      commit_grade ~io dir ("CS345", 2) (rotating_grade ~io dir))
    ()

(* Snapshot-only persistence: the atomic write protocol alone must never
   corrupt the store, through [Recovery.snapshot] (a follower's fold and
   promotion, on a store that may have no journal) and through
   [Store.save_file] (what `export` does). *)
let crash_during_save save =
  assert_crash_recoverable
    ~setup:(fun ~io dir -> make_store ~io dir)
    ~action:(fun ~io dir ->
      let ws, _ = check_ok_e (Penguin.Recovery.open_store ~io (store_in dir)) in
      save ~io (store_in dir) (apply_edit ws ("CS345", 2) "A-"))
    ()

let test_crash_during_snapshot () =
  crash_during_save (fun ~io store ws -> Penguin.Recovery.snapshot ~io ~store ws)

let test_crash_during_save_file () =
  crash_during_save (fun ~io store ws -> Penguin.Store.save_file ~io ws store)

(* --- recovery semantics ----------------------------------------------- *)

let test_recovery_replays_journal () =
  let dir = temp_dir "recovery" in
  make_store dir;
  check_ok_e (commit_grade ~io:Penguin.Fsio.default dir ("CS345", 2) "A-");
  check_ok_e (commit_grade ~io:Penguin.Fsio.default dir ("EE280", 1) "C");
  let ws, report = recover dir in
  Alcotest.(check int) "two replayed entries" 2 report.Penguin.Recovery.replayed;
  Alcotest.(check bool) "grade 1" true (grade_of ws ("CS345", 2) = Value.Str "A-");
  Alcotest.(check bool) "grade 2" true (grade_of ws ("EE280", 1) = Value.Str "C");
  Alcotest.(check int) "version = snapshot + 2" (report.Penguin.Recovery.snapshot_version + 2)
    report.Penguin.Recovery.version;
  rm_rf dir

let test_recovery_truncates_torn_tail () =
  let dir = temp_dir "recovery" in
  make_store dir;
  check_ok_e (commit_grade ~io:Penguin.Fsio.default dir ("CS345", 2) "A-");
  (* A crash mid-append left garbage at the end of the journal. *)
  let jpath = Penguin.Journal.journal_path (store_in dir) in
  check_ok_e (Penguin.Fsio.default.Penguin.Fsio.write ~path:jpath ~append:true "\x00\x00\x00\x30garbage");
  let torn = read_raw jpath in
  (* A plain (read-only) open discards the tail in memory but must not
     rewrite the journal: absent the store lock, the "torn tail" could
     be another process's append in flight, and replacing the file would
     discard that commit after its fsync succeeded. *)
  let ws, report = recover dir in
  Alcotest.(check bool) "torn tail reported" true (report.Penguin.Recovery.torn_bytes > 0);
  Alcotest.(check bool) "not repaired by a read-only open" false
    report.Penguin.Recovery.repaired;
  Alcotest.(check bool) "journal untouched on disk" true (read_raw jpath = torn);
  Alcotest.(check bool) "the durable commit survived" true
    (grade_of ws ("CS345", 2) = Value.Str "A-");
  (* An explicit repair (the caller claims the writer's role) truncates. *)
  let _, report_r = check_ok_e (Penguin.Recovery.open_store ~repair:true (store_in dir)) in
  Alcotest.(check bool) "explicit repair truncates" true report_r.Penguin.Recovery.repaired;
  let _, report2 = recover dir in
  Alcotest.(check int) "clean after repair" 0 report2.Penguin.Recovery.torn_bytes;
  rm_rf dir

let test_commit_repairs_torn_tail () =
  let dir = temp_dir "recovery" in
  make_store dir;
  check_ok_e (commit_grade ~io:Penguin.Fsio.default dir ("CS345", 2) "A-");
  let jpath = Penguin.Journal.journal_path (store_in dir) in
  check_ok_e (Penguin.Fsio.default.Penguin.Fsio.write ~path:jpath ~append:true "\x00\x00\x00\x30garbage");
  (* The next commit — the write path — truncates the crash remnant
     before appending, so its record lands where replay looks. *)
  check_ok_e (commit_grade ~io:Penguin.Fsio.default dir ("EE280", 1) "C");
  let ws, report = recover dir in
  Alcotest.(check int) "clean after the commit" 0 report.Penguin.Recovery.torn_bytes;
  Alcotest.(check bool) "both commits survive" true
    (grade_of ws ("CS345", 2) = Value.Str "A-"
    && grade_of ws ("EE280", 1) = Value.Str "C");
  rm_rf dir

(* A store and journal in the layout written before every document was
   printed one item per line: lists longer than 72 columns broke into one
   element per line, so a data row and a commit record span several
   lines. The readers ignore layout; such a store must still open. *)
let pinned_multiline_store =
  {|(penguin-workspace
 (version 1)
 (schemas
  (schema
   COURSES
   (attrs (course_id string) (title string))
   (key course_id))
  (schema
   GRADES
   (attrs (course_id string) (pid int) (grade string))
   (key course_id pid)))
 (connections
  (connection ownership COURSES GRADES (on (course_id) (course_id))))
 (objects
  (object
   omega
   COURSES
   (node
    COURSES
    COURSES
    (attrs course_id title)
    (path)
    (children
     (node
      GRADES
      GRADES
      (attrs pid grade)
      (path (edge forward "COURSES->GRADES:ownership(course_id;course_id)"))
      (children))))))
 (translators
  (translator
   omega
   (insertion true)
   (deletion true)
   (replacement true)
   (island-keys)
   (outside)
   (reference-actions)
   (default-outside (true true true))
   (default-reference-action delete-referencing)))
 (data
  (relation
   COURSES
   (row
    (course_id (str CS345))
    (title
     (str
      "Database Systems: updating relational databases through object-based views"))))
  (relation
   GRADES
   (row (course_id (str CS345)) (grade (str B)) (pid (int 1)))
   (row (course_id (str CS345)) (grade (str A-)) (pid (int 2))))))
|}

let pinned_multiline_journal =
  [ {|(penguin-journal 2 (base 1) (epoch 0))|};
    {|(commit
 (entry
  2
  (kind "replacement on omega")
  (delta
   (rel
    GRADES
    (upd
     (key (str CS345) (int 2))
     (row (course_id (str CS345)) (grade (str A-)) (pid (int 2)))
     (row (course_id (str CS345)) (grade (str A)) (pid (int 2)))))))
 (entry
  3
  (kind "replacement on omega")
  (delta
   (rel
    COURSES
    (upd
     (key (str CS345))
     (row
      (course_id (str CS345))
      (title
       (str
        "Database Systems: updating relational databases through object-based views")))
     (row
      (course_id (str CS345))
      (title
       (str
        "Database Systems: view objects over a relational schema, updated"))))))))|} ]

(* --- the snapshot reader's refusals ---------------------------------------- *)

(* A one-course store in the writer's layout, its GRADES rows given. *)
let store_with_grades rows =
  Printf.sprintf
    {|(penguin-workspace
 (version 1)
 (schemas
  (schema COURSES (attrs (course_id string) (title string)) (key course_id))
  (schema GRADES (attrs (course_id string) (pid int) (grade string)) (key course_id pid)))
 (connections
  (connection ownership COURSES GRADES (on (course_id) (course_id))))
 (objects
  (object omega COURSES (node COURSES COURSES (attrs course_id title) (path) (children (node GRADES GRADES (attrs pid grade) (path (edge forward "COURSES->GRADES:ownership(course_id;course_id)")) (children))))))
 (translators
  (translator omega (insertion true) (deletion true) (replacement true) (island-keys) (outside) (reference-actions) (default-outside (true true true)) (default-reference-action delete-referencing)))
 (data
  (relation COURSES
   (row (course_id (str CS345)) (title (str "Database Systems"))))
  (relation GRADES%s)))
|}
    (String.concat "" (List.map (fun r -> "\n   " ^ r) rows))

let grade_row ?(pid = "(int 1)") ?(grade = "(str B)") () =
  Printf.sprintf "(row (course_id (str CS345)) (grade %s) (pid %s))" grade pid

let open_doc doc =
  let io = D.io (D.mem ()) in
  check_ok_e (Penguin.Fsio.atomic_write io ~path:(store_in ".") doc);
  Penguin.Recovery.open_store ~io (store_in ".")

(* [open_store] refuses the document as corrupt, naming [sub]. *)
let refused ~sub doc =
  match open_doc doc with
  | Error (Penguin.Error.Corrupt { detail; _ }) ->
      if not (Strutil.contains ~sub detail) then
        Alcotest.failf "refusal %S does not name %S" detail sub
  | Error e -> Alcotest.failf "not a corrupt store: %s" (Penguin.Error.to_string e)
  | Ok _ -> Alcotest.failf "opened a store that should be refused (%s)" sub

let test_reader_refusals () =
  let two = store_with_grades [ grade_row (); grade_row ~pid:"(int 2)" () ] in
  let rec index_of sub i =
    if String.sub two i (String.length sub) = sub then i else index_of sub (i + 1)
  in
  refused ~sub:"unterminated list" (String.sub two 0 (index_of "(pid (int 2" 0 + 8));
  refused ~sub:"unterminated string"
    (store_with_grades [ grade_row ~grade:{|(str "A-)|} () ]);
  refused ~sub:"bad value (num 5)" (store_with_grades [ grade_row ~grade:"(num 5)" () ]);
  refused ~sub:"bad int two" (store_with_grades [ grade_row ~pid:"(int two)" () ]);
  (* A duplicate key and a nonconforming row in one relation: the one
     first in file order is named, whichever it is. *)
  let wrong_domain = grade_row ~pid:"(int 3)" ~grade:"(int 7)" () in
  refused ~sub:"duplicate key"
    (store_with_grades [ grade_row (); grade_row (); wrong_domain ]);
  refused ~sub:"wrong domain for grade"
    (store_with_grades [ grade_row (); wrong_domain; grade_row () ])

let test_reader_skips_comments_between_rows () =
  let doc =
    store_with_grades
      [ grade_row (); "; a comment between rows (with a paren and a \" quote";
        grade_row ~pid:"(int 2)" ~grade:"(str A)" () ]
  in
  match open_doc doc with
  | Ok (ws, _) ->
      Alcotest.(check int) "both grades" 2
        (Relation.cardinality (Database.relation_exn ws.Penguin.Workspace.db "GRADES"))
  | Error e -> Alcotest.failf "refused: %s" (Penguin.Error.to_string e)

let test_multiline_store_opens () =
  let io = D.io (D.mem ()) in
  let store = store_in "." in
  check_ok_e (Penguin.Fsio.atomic_write io ~path:store pinned_multiline_store);
  check_ok_e
    (Penguin.Fsio.atomic_write io ~path:(Penguin.Journal.journal_path store)
       (String.concat "" (List.map Penguin.Journal.frame pinned_multiline_journal)));
  let ws, report = recover ~io "." in
  Alcotest.(check int) "snapshot version" 1 report.Penguin.Recovery.snapshot_version;
  Alcotest.(check int) "two replayed entries" 2 report.Penguin.Recovery.replayed;
  Alcotest.(check int) "version" 3 (Penguin.Workspace.version ws);
  let db = ws.Penguin.Workspace.db in
  let row rel key =
    match Relation.lookup (Database.relation_exn db rel) key with
    | Some t -> t
    | None -> Alcotest.failf "%s: row missing" rel
  in
  Alcotest.check value_testable "replayed title"
    (Value.Str "Database Systems: view objects over a relational schema, updated")
    (Tuple.get (row "COURSES" [ Value.Str "CS345" ]) "title");
  Alcotest.check value_testable "replayed grade" (Value.Str "A")
    (Tuple.get (row "GRADES" [ Value.Str "CS345"; Value.Int 2 ]) "grade");
  Alcotest.check value_testable "untouched grade" (Value.Str "B")
    (Tuple.get (row "GRADES" [ Value.Str "CS345"; Value.Int 1 ]) "grade");
  Alcotest.(check int) "three tuples" 3 (Database.total_tuples db);
  Alcotest.(check (list string)) "objects" [ "omega" ]
    (List.map fst ws.Penguin.Workspace.objects);
  Alcotest.(check (list string)) "translators" [ "omega" ]
    (List.map fst ws.Penguin.Workspace.translators)

(* Frames of the retired two-phase cross-shard protocol: a plain store
   never wrote them, and a journal record is one commit batch, so a
   checksummed [(prepare …)], [(decide …)] or [(mark …)] frame is
   corruption. Opening must fail naming the record and its byte offset,
   never skip the frame and silently drop the commit a prepared slice
   carries. *)
let legacy_2pc_frames ~commit_payload =
  let entries =
    match check_ok (Sexp.parse commit_payload) with
    | Sexp.List (Sexp.Atom "commit" :: entries) -> entries
    | _ -> Alcotest.failf "not a commit payload: %s" commit_payload
  in
  let a = Sexp.atom and l = Sexp.list in
  List.map
    (fun (kind, doc) -> kind, Sexp.to_string doc)
    [ "prepare",
      l (a "prepare" :: a "g1" :: l [ a "shards"; a "0"; a "1" ] :: entries);
      "decide", l [ a "decide"; a "g1" ];
      "mark", l [ a "mark"; a "g1" ] ]

let test_recovery_rejects_legacy_2pc_frames () =
  let dir = temp_dir "recovery-2pc" in
  make_store dir;
  check_ok_e (commit_grade ~io:Penguin.Fsio.default dir ("CS345", 2) "A-");
  check_ok_e (commit_grade ~io:Penguin.Fsio.default dir ("EE280", 1) "C");
  let jpath = Penguin.Journal.journal_path (store_in dir) in
  let journal = read_raw jpath in
  (* Keep the header and the first commit; the second commit's entries
     become the prepared slice of a legacy frame at record index 1. *)
  let frames, _, _ = Penguin.Journal.decode_frames journal in
  let off, commit_payload =
    match frames with
    | [ _header; _first; second ] -> second
    | l -> Alcotest.failf "expected header + 2 records, got %d frames" (List.length l)
  in
  let snapshot = read_raw (store_in dir) in
  List.iter
    (fun (kind, payload) ->
      check_ok_e
        (Penguin.Fsio.atomic_write Penguin.Fsio.default ~path:jpath
           (String.sub journal 0 off ^ Penguin.Journal.frame payload));
      match Penguin.Recovery.open_store (store_in dir) with
      | Ok (_, report) ->
          Alcotest.failf "%s frame: opened at v%d, skipping the frame" kind
            report.Penguin.Recovery.version
      | Error (Penguin.Error.Corrupt { path; record; detail; _ }) ->
          Alcotest.(check (option string)) (kind ^ ": names the journal")
            (Some jpath) path;
          Alcotest.(check (option int)) (kind ^ ": names the record") (Some 1)
            record;
          Alcotest.(check bool) (kind ^ ": names the byte offset") true
            (Strutil.contains ~sub:(Fmt.str "record 1 at byte %d" off) detail)
      | Error e ->
          Alcotest.failf "%s frame: expected Corrupt, got %s" kind
            (Penguin.Error.to_string e))
    (legacy_2pc_frames ~commit_payload);
  Alcotest.(check bool) "the snapshot is untouched" true
    (read_raw (store_in dir) = snapshot);
  rm_rf dir

let test_rotation_bounds_replay () =
  let dir = temp_dir "recovery" in
  make_store dir;
  (* Each grade is as long as the snapshot it is committed on. *)
  let grades =
    List.map
      (fun g ->
        let g = rotating_grade dir ^ g in
        check_ok_e (commit_grade ~io:Penguin.Fsio.default dir ("CS345", 2) g);
        g)
      [ "A-"; "B"; "C+"; "A"; "B-" ]
  in
  let ws, report = recover dir in
  Alcotest.(check bool) "snapshot advanced past the origin" true
    (report.Penguin.Recovery.snapshot_version > 1);
  Alcotest.(check bool) "replay is bounded by the rotation rule" true
    (report.Penguin.Recovery.replayed < List.length grades);
  Alcotest.(check bool) "last write wins" true
    (grade_of ws ("CS345", 2) = Value.Str (List.nth grades 4));
  check_ok ~msg:"consistent" (Penguin.Workspace.check_consistency ws);
  rm_rf dir

(* --- cross-process optimistic concurrency over the journal ------------ *)

(* Two "processes" share only the files in [dir]; each loads its own
   state with Recovery.open_store, exactly as two CLI invocations do. *)

let queue_edit sess ws enrolment grade =
  let retry ws' = Ok (Some (grade_edit ws' enrolment grade)) in
  check_ok_e (Penguin.Session.queue sess "omega" ~retry (grade_edit ws enrolment grade))

let test_cross_process_clean_commit () =
  let dir = temp_dir "occ" in
  make_store dir;
  let store = store_in dir in
  (* Process A begins a session. *)
  let ws_a, _ = check_ok_e (Penguin.Recovery.open_store store) in
  let sess = queue_edit (Penguin.Session.begin_ ws_a) ws_a ("CS345", 2) "A-" in
  (* Process B commits a non-overlapping update meanwhile. *)
  check_ok_e (commit_grade ~io:Penguin.Fsio.default dir ("EE280", 1) "C");
  (* Process A commits: the journal replays B's delta, the footprints
     are disjoint, so no rebase — the win over a bare version file,
     which could only assume conflict. *)
  let ws_now, _ = check_ok_e (Penguin.Recovery.open_store store) in
  Alcotest.(check bool) "divergence is clean" true
    (Penguin.Session.divergence ws_now sess = Penguin.Session.Clean);
  let ws', stats = check_ok_e (Penguin.Session.commit ws_now sess) in
  Alcotest.(check bool) "no rebase" false stats.Penguin.Session.rebased;
  Alcotest.(check int) "one attempt" 1 stats.Penguin.Session.attempts;
  check_ok_e
    (Result.map ignore
       (Penguin.Recovery.persist ~store ~since:(Penguin.Workspace.version ws_now) ws'));
  let ws_final, _ = recover dir in
  Alcotest.(check bool) "both effects" true
    (grade_of ws_final ("CS345", 2) = Value.Str "A-"
    && grade_of ws_final ("EE280", 1) = Value.Str "C");
  rm_rf dir

let test_cross_process_conflicting_commit_rebases () =
  let dir = temp_dir "occ" in
  make_store dir;
  let store = store_in dir in
  let ws_a, _ = check_ok_e (Penguin.Recovery.open_store store) in
  let sess = queue_edit (Penguin.Session.begin_ ws_a) ws_a ("CS345", 2) "A-" in
  (* B touches the same instance (same course, another student): the
     session's read footprint overlaps B's write. *)
  check_ok_e (commit_grade ~io:Penguin.Fsio.default dir ("CS345", 1) "F");
  let ws_now, _ = check_ok_e (Penguin.Recovery.open_store store) in
  (match Penguin.Session.divergence ws_now sess with
  | Penguin.Session.Conflicting (_ :: _) -> ()
  | _ -> Alcotest.fail "expected a conflict from the replayed delta");
  let ws', stats = check_ok_e (Penguin.Session.commit ws_now sess) in
  Alcotest.(check bool) "rebased" true stats.Penguin.Session.rebased;
  check_ok_e
    (Result.map ignore
       (Penguin.Recovery.persist ~store ~since:(Penguin.Workspace.version ws_now) ws'));
  let ws_final, _ = recover dir in
  Alcotest.(check bool) "both effects" true
    (grade_of ws_final ("CS345", 1) = Value.Str "F"
    && grade_of ws_final ("CS345", 2) = Value.Str "A-");
  rm_rf dir

(* Belt and braces under the lock: even if a committer's lock
   discipline is violated, persist must refuse to append a version the
   journal already holds — two records for the same version would make
   the store unopenable (append_entry's dense-extension check fails on
   every later replay). *)
let test_persist_refuses_stale_base () =
  let dir = temp_dir "occ" in
  make_store dir;
  let store = store_in dir in
  (* Process A prepares a commit against v_base... *)
  let ws_a, _ = check_ok_e (Penguin.Recovery.open_store store) in
  let stale = Penguin.Workspace.version ws_a in
  let ws_a' = apply_edit ws_a ("CS345", 2) "A-" in
  (* ...but process B commits first. *)
  check_ok_e (commit_grade ~io:Penguin.Fsio.default dir ("EE280", 1) "C");
  (match Penguin.Recovery.persist ~store ~since:stale ws_a' with
  | Ok _ -> Alcotest.fail "persist must refuse a stale base version"
  | Error e ->
      (* The lost race is a typed [Conflict] whose message names it. *)
      (match e with
      | Penguin.Error.Conflict _ -> ()
      | _ -> Alcotest.failf "expected Conflict, got %s" (Penguin.Error.kind e));
      let e = Penguin.Error.to_string e in
      let contains hay needle =
        let n = String.length hay and m = String.length needle in
        let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Fmt.str "error names the advance: %s" e)
        true (contains e "advanced"));
  (* The store is still openable and holds exactly B's commit. *)
  let ws, _ = recover dir in
  Alcotest.(check bool) "B's commit survived, A's was refused" true
    (grade_of ws ("EE280", 1) = Value.Str "C"
    && grade_of ws ("CS345", 2) <> Value.Str "A-");
  rm_rf dir

(* Two real processes: the parent holds the store lock while a forked
   child runs a full open -> edit -> persist commit; the child must
   block until the parent releases, then land its commit cleanly. *)
let test_store_lock_serializes_commits () =
  let dir = temp_dir "lock" in
  make_store dir;
  let store = store_in dir in
  let marker = Filename.concat dir "child-committed" in
  let pid =
    check_ok_e
      (Penguin.Fsio.with_lock store (fun () ->
           match Unix.fork () with
           | 0 ->
               let r =
                 Penguin.Fsio.with_lock store (fun () ->
                     let ( let* ) = Result.bind in
                     let* ws, _ = Penguin.Recovery.open_store store in
                     let ws' = apply_edit ws ("EE280", 1) "C" in
                     let* _ =
                       Penguin.Recovery.persist ~store
                         ~since:(Penguin.Workspace.version ws) ws'
                     in
                     Penguin.Fsio.default.Penguin.Fsio.write ~path:marker
                       ~append:false "done")
               in
               (* _exit: no at_exit, no alcotest teardown in the child. *)
               Unix._exit (match r with Ok () -> 0 | Error _ -> 1)
           | pid ->
               (* Give the child time to block on the lock. If it could
                  acquire it concurrently, the marker would appear now. *)
               Unix.sleepf 0.3;
               Alcotest.(check bool) "child is excluded while the lock is held"
                 false (Sys.file_exists marker);
               Ok pid))
  in
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "child commit succeeded after release" true
    (status = Unix.WEXITED 0);
  Alcotest.(check bool) "child reached its commit" true (Sys.file_exists marker);
  let ws, _ = recover dir in
  Alcotest.(check bool) "child's commit is in the store" true
    (grade_of ws ("EE280", 1) = Value.Str "C");
  rm_rf dir

let test_rotation_is_a_barrier_for_older_sessions () =
  let dir = temp_dir "occ" in
  make_store dir;
  let store = store_in dir in
  let ws_a, _ = check_ok_e (Penguin.Recovery.open_store store) in
  let sess = queue_edit (Penguin.Session.begin_ ws_a) ws_a ("CS345", 2) "A-" in
  (* B's commit rotates the journal into a fresh snapshot: the history
     A's session spans is no longer held as deltas. *)
  check_ok_e
    (commit_grade ~io:Penguin.Fsio.default dir ("EE280", 1) (rotating_grade dir));
  let ws_now, _ = check_ok_e (Penguin.Recovery.open_store store) in
  Alcotest.(check bool) "history unknown after rotation" true
    (Penguin.Session.divergence ws_now sess = Penguin.Session.Unknown_history);
  let ws', stats = check_ok_e (Penguin.Session.commit ws_now sess) in
  Alcotest.(check bool) "rebased unconditionally" true stats.Penguin.Session.rebased;
  Alcotest.(check bool) "effect applied" true (grade_of ws' ("CS345", 2) = Value.Str "A-");
  rm_rf dir

(* --- the long-lived appender ------------------------------------------- *)

let test_appender_incremental_appends () =
  let dir = temp_dir "appender" in
  make_store dir;
  let store = store_in dir in
  let ws, _ = check_ok_e (Penguin.Recovery.open_store store) in
  let app = check_ok_e (Penguin.Recovery.Appender.create ~store ws) in
  let grades = [ "A-"; "B+"; "C"; "A-"; "B" ] in
  let final =
    List.fold_left
      (fun ws g ->
        let ws' = apply_edit ws ("CS345", 2) g in
        let p =
          check_ok_e
            (Penguin.Recovery.Appender.append app
               ~since:(Penguin.Workspace.version ws) ws')
        in
        Alcotest.(check bool) "no rotation below the threshold" false
          p.Penguin.Recovery.rotated;
        ws')
      ws grades
  in
  Alcotest.(check int) "cursor tracks the tail"
    (Penguin.Workspace.version final)
    (Penguin.Recovery.Appender.tail app);
  let ws', report = recover dir in
  Alcotest.(check int) "every append replays"
    (Penguin.Workspace.version final)
    report.Penguin.Recovery.version;
  Alcotest.(check bool) "last grade wins" true
    (grade_of ws' ("CS345", 2) = Value.Str "B");
  rm_rf dir

(* The journal's bytes past its header, read off the file. *)
let records_bytes content =
  match Penguin.Journal.decode_frames content with
  | (_, header) :: _, _, _ ->
      String.length content - String.length (Penguin.Journal.frame header)
  | [], _, _ -> Alcotest.fail "a journal without a header"

(* Ordinary single-grade commits: each append rotates exactly when the
   records on file reach the snapshot on file, so a rotation comes
   after many records, not after each one. *)
let test_appender_rotates_at_snapshot_size () =
  let module A = Penguin.Recovery.Appender in
  let io = D.io (D.mem ()) in
  make_store ~io ".";
  let store = store_in "." in
  let jpath = Penguin.Journal.journal_path store in
  let ws, _ = recover ~io "." in
  let app = check_ok_e (A.create ~io ~store ws) in
  let rec go ws i since_rotation gaps =
    if List.length gaps = 2 then ws, gaps
    else if i > 500 then Alcotest.fail "500 appends and no second rotation"
    else
      let ws' = apply_edit ws ("CS345", 2) (Fmt.str "G%03d" i) in
      check_ok_e (A.write app ~since:(Penguin.Workspace.version ws) ws');
      let due =
        records_bytes (read_raw ~io jpath) >= String.length (read_raw ~io store)
      in
      let p = A.rotate app ws' in
      Alcotest.(check bool)
        (Fmt.str "append %d rotates exactly when the journal reaches the snapshot" i)
        due p.Penguin.Recovery.rotated;
      if p.Penguin.Recovery.rotated then go ws' (i + 1) 0 ((since_rotation + 1) :: gaps)
      else go ws' (i + 1) (since_rotation + 1) gaps
  in
  let last, gaps = go ws 1 0 [] in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Fmt.str "a rotation per snapshot's worth of records (%d)" n)
        true (n > 10))
    gaps;
  let _, report = recover ~io "." in
  Alcotest.(check int) "reopens at the last append" (Penguin.Workspace.version last)
    report.Penguin.Recovery.version;
  Alcotest.(check bool) "replay is bounded by the snapshot's size" true
    (records_bytes (read_raw ~io jpath) < String.length (read_raw ~io store))

(* A window of only empty sessions (a probe's commit) writes nothing:
   the journal's bytes are unchanged, and the rotation that follows it
   leaves a journal of one header, with no empty record for a follower
   to trip over. *)
let test_appender_empty_commit_writes_nothing () =
  let module A = Penguin.Recovery.Appender in
  let dir = temp_dir "appender" in
  make_store dir;
  let store = store_in dir in
  let jpath = Penguin.Journal.journal_path store in
  let ws, _ = check_ok_e (Penguin.Recovery.open_store store) in
  let app = check_ok_e (A.create ~store ws) in
  let ws1 = apply_edit ws ("CS345", 2) (rotating_grade dir) in
  check_ok_e (A.write app ~since:(Penguin.Workspace.version ws) ws1);
  let v1 = Penguin.Workspace.version ws1 in
  let before = read_raw jpath in
  check_ok_e (A.write app ~since:v1 ws1);
  Alcotest.(check string) "an empty commit leaves the journal bytes" before
    (read_raw jpath);
  Alcotest.(check int) "the tail stays" v1 (A.tail app);
  Alcotest.(check bool) "rotated" true (A.rotate app ws1).Penguin.Recovery.rotated;
  let r = Option.get (check_ok_e (Penguin.Journal.replay (Penguin.Journal.create jpath))) in
  Alcotest.(check int) "based at the written version" v1 r.Penguin.Journal.base;
  Alcotest.(check int) "the compaction kept no empty record" 0 r.Penguin.Journal.records;
  rm_rf dir

let test_appender_refuses_stale_since () =
  let dir = temp_dir "appender" in
  make_store dir;
  let store = store_in dir in
  let ws, _ = check_ok_e (Penguin.Recovery.open_store store) in
  let app = check_ok_e (Penguin.Recovery.Appender.create ~store ws) in
  let ws' = apply_edit ws ("CS345", 2) "A-" in
  let _ =
    check_ok_e
      (Penguin.Recovery.Appender.append app
         ~since:(Penguin.Workspace.version ws) ws')
  in
  (match
     Penguin.Recovery.Appender.append app
       ~since:(Penguin.Workspace.version ws) ws'
   with
  | Ok _ -> Alcotest.fail "stale since must be refused"
  | Error e ->
      Alcotest.(check string) "typed as a conflict" "conflict"
        (Penguin.Error.kind e));
  (* Opening an appender on a workspace the journal has moved past is
     the same lost race persist reports, in the same words. *)
  (match Penguin.Recovery.Appender.create ~store ws with
  | Ok _ -> Alcotest.fail "a workspace behind the journal must be refused"
  | Error e ->
      Alcotest.(check string) "create: typed as a conflict" "conflict"
        (Penguin.Error.kind e);
      Alcotest.(check bool)
        (Fmt.str "create: error names the advance: %s"
           (Penguin.Error.to_string e))
        true
        (Strutil.contains ~sub:"advanced" (Penguin.Error.to_string e)));
  rm_rf dir

(* An append that tears mid-write is cut back before it reports, so the
   retried commit lands where replay looks instead of after garbage. *)
let test_appender_revalidates_after_torn_append () =
  let store = store_in "." in
  let d =
    D.mem ~schedule:(D.Once [ `Write, Penguin.Journal.journal_path store, D.Torn ]) ()
  in
  let io = D.io d in
  make_store ~io ".";
  let ws, _ = check_ok_e (Penguin.Recovery.open_store ~io store) in
  let app = check_ok_e (Penguin.Recovery.Appender.create ~io ~store ws) in
  let ws' = apply_edit ws ("CS345", 2) "A-" in
  let since = Penguin.Workspace.version ws in
  (match Penguin.Recovery.Appender.append app ~since ws' with
  | Ok _ -> Alcotest.fail "the torn append must fail"
  | Error _ -> ());
  (* The commit never became durable: re-derive it and retry. *)
  let _ = check_ok_e (Penguin.Recovery.Appender.append app ~since ws') in
  D.crash d;
  let recovered, report = recover ~io "." in
  Alcotest.(check bool) "the retried commit is durable" true
    (grade_of recovered ("CS345", 2) = Value.Str "A-");
  Alcotest.(check int) "exactly one replayed entry" 1
    report.Penguin.Recovery.replayed

(* --- the appender's counts, property-checked ------------------------- *)

type step =
  | Append of int  (** a grade of this many bytes *)
  | Empty  (** a window with nothing to write *)
  | Failed_append of D.kind
      (** the record's write ([Torn], [Corrupt], [Transient]) or fsync
          ([Hard]) fails; its cut succeeds *)
  | Failed_cut  (** a torn append whose cut back fails too *)
  | Torn_tail of int  (** a dead writer's remnant of this many bytes, reopened *)
  | Reopen of bool  (** with the open's snapshot size, or without it *)

let pp_step ppf = function
  | Append n -> Fmt.pf ppf "append %d" n
  | Empty -> Fmt.string ppf "empty"
  | Failed_append k ->
      Fmt.pf ppf "failed append (%s)"
        (match k with D.Torn -> "torn" | D.Corrupt -> "corrupt"
         | D.Transient -> "transient" | D.Hard -> "fsync" | _ -> "?")
  | Failed_cut -> Fmt.string ppf "failed cut"
  | Torn_tail n -> Fmt.pf ppf "torn tail %d" n
  | Reopen given -> Fmt.pf ppf "reopen%s" (if given then "" else " (read size)")

let step_gen =
  let open QCheck.Gen in
  frequency
    [ 8, map (fun n -> Append n) (frequency [ 4, int_range 1 8; 1, int_range 100 4000 ]);
      1, return Empty;
      2, map (fun k -> Failed_append k)
           (oneofl [ D.Torn; D.Corrupt; D.Transient; D.Hard ]);
      1, return Failed_cut;
      1, map (fun n -> Torn_tail n) (int_range 1 40);
      1, map (fun b -> Reopen b) bool ]

(* The end of the journal's records at or below [tail]: the whole file,
   unless a failed write left a remnant its next write cuts off. *)
let good_end content ~tail =
  let held (_, payload) =
    match Penguin.Journal.record_of_payload payload with
    | Ok es -> List.for_all (fun (e : Penguin.Commit_log.entry) -> e.version <= tail) es
    | Error _ -> false
  in
  match Penguin.Journal.decode_frames content with
  | [], _, _ -> Alcotest.fail "a journal without a header"
  | _ :: records, clean, _ -> (
      match List.find_opt (fun r -> not (held r)) records with
      | Some (off, _) -> off
      | None -> clean)

let run_steps steps =
  let module A = Penguin.Recovery.Appender in
  Obs.Metrics.enable ();
  let gauge name = int_of_float (Obs.Metrics.Gauge.value (Obs.Metrics.gauge name)) in
  let d = D.mem () in
  let io = D.io d in
  make_store ~io ".";
  let store = store_in "." and jpath = Penguin.Journal.journal_path (store_in ".") in
  let ws = ref (fst (recover ~io ".")) in
  let open_app ~given =
    let ws', report = check_ok_e (Penguin.Recovery.open_store ~io store) in
    Alcotest.(check int) "reopens at the last append" (Penguin.Workspace.version !ws)
      (Penguin.Workspace.version ws');
    ws := ws';
    let snapshot_bytes =
      if given then Some report.Penguin.Recovery.snapshot_bytes else None
    in
    check_ok_e (A.create ~io ?snapshot_bytes ~store ws')
  in
  let app = ref (open_app ~given:true) in
  let i = ref 0 in
  let edit len =
    incr i;
    apply_edit !ws ("CS345", 2) (string_of_int !i ^ String.make len 'g')
  in
  (* Write [ws'], then rotate as the server does: it must rotate
     exactly when the records on file reach the snapshot on file. *)
  let append ws' =
    match A.write !app ~since:(Penguin.Workspace.version !ws) ws' with
    | Error e -> Error e
    | Ok () ->
        ws := ws';
        let records = records_bytes (read_raw ~io jpath) in
        let snapshot = String.length (read_raw ~io store) in
        let p = A.rotate !app ws' in
        Alcotest.(check bool)
          (Fmt.str "a rotation comes at the append that reaches the snapshot \
                    (records %d, snapshot %d)" records snapshot)
          (records > 0 && records >= snapshot) p.Penguin.Recovery.rotated;
        Ok ()
  in
  let failing schedule ws' =
    D.set_schedule d (D.Once schedule);
    let r = A.write !app ~since:(Penguin.Workspace.version !ws) ws' in
    D.set_schedule d D.never;
    Alcotest.(check bool) "the faulted append fails" true (Result.is_error r)
  in
  (* A failed cut leaves a remnant until the next write, or an open,
     cuts it. *)
  let remnant = ref false in
  List.iter
    (fun step ->
      (match step with
      | Append n -> check_ok_e (append (edit n))
      | Empty -> check_ok_e (append !ws)
      | Failed_append k ->
          let op = if k = D.Hard then `Sync else `Write in
          failing [ op, jpath, k ] (edit 4)
      | Failed_cut -> failing [ `Write, jpath, D.Torn; `Rename, jpath, D.Hard ] (edit 4)
      | Torn_tail n ->
          check_ok_e
            (io.Penguin.Fsio.write ~path:jpath ~append:true
               (String.sub (Penguin.Journal.frame (String.make 64 'x')) 0 n));
          app := open_app ~given:true
      | Reopen given -> app := open_app ~given);
      remnant := step = Failed_cut;
      let content = read_raw ~io jpath in
      let good = good_end content ~tail:(A.tail !app) in
      Alcotest.(check int)
        (Fmt.str "after %a: the appender counts the journal's bytes" pp_step step)
        good (gauge "recovery.journal_bytes");
      if not !remnant then
        Alcotest.(check int)
          (Fmt.str "after %a: the journal's length" pp_step step)
          (String.length content) good;
      Alcotest.(check int)
        (Fmt.str "after %a: the appender counts the snapshot's bytes" pp_step step)
        (String.length (read_raw ~io store)) (gauge "recovery.snapshot_bytes"))
    steps;
  true

let prop_appender_counts =
  QCheck.Test.make ~name:"appender counts the journal's bytes; rotates at the snapshot's size"
    ~count:60
    (QCheck.make ~print:(Fmt.str "%a" (Fmt.Dump.list pp_step))
       QCheck.Gen.(list_size (int_range 10 60) step_gen))
    run_steps

let suite =
  [
    Alcotest.test_case "crash anywhere in the first durable commit" `Quick
      test_crash_during_first_commit;
    Alcotest.test_case "crash anywhere appending to an existing journal"
      `Quick test_crash_during_append_to_existing_journal;
    Alcotest.test_case "crash anywhere during rotation" `Quick
      test_crash_during_rotate;
    Alcotest.test_case "crash anywhere during an atomic snapshot save" `Quick
      test_crash_during_snapshot;
    Alcotest.test_case "crash anywhere during a store export" `Quick
      test_crash_during_save_file;
    Alcotest.test_case "recovery replays the journal onto the snapshot" `Quick
      test_recovery_replays_journal;
    Alcotest.test_case "recovery truncates and repairs a torn tail" `Quick
      test_recovery_truncates_torn_tail;
    Alcotest.test_case "a commit repairs a torn tail before appending" `Quick
      test_commit_repairs_torn_tail;
    Alcotest.test_case "a store and journal in the multi-line layout open"
      `Quick test_multiline_store_opens;
    Alcotest.test_case "the snapshot reader refuses malformed data as corrupt"
      `Quick test_reader_refusals;
    Alcotest.test_case "the snapshot reader skips comments between rows" `Quick
      test_reader_skips_comments_between_rows;
    Alcotest.test_case "recovery rejects legacy two-phase frames" `Quick
      test_recovery_rejects_legacy_2pc_frames;
    Alcotest.test_case "rotation bounds replay length" `Quick
      test_rotation_bounds_replay;
    Alcotest.test_case "persist refuses a stale base version" `Quick
      test_persist_refuses_stale_base;
    Alcotest.test_case "the store lock serializes real processes" `Quick
      test_store_lock_serializes_commits;
    Alcotest.test_case "cross-process clean commit needs no rebase" `Quick
      test_cross_process_clean_commit;
    Alcotest.test_case "cross-process conflicting commit rebases" `Quick
      test_cross_process_conflicting_commit_rebases;
    Alcotest.test_case "rotation is a barrier for older sessions" `Quick
      test_rotation_is_a_barrier_for_older_sessions;
    Alcotest.test_case "appender: incremental appends replay" `Quick
      test_appender_incremental_appends;
    Alcotest.test_case "appender: rotation at the snapshot's size" `Quick
      test_appender_rotates_at_snapshot_size;
    Alcotest.test_case "appender: an empty commit writes nothing" `Quick
      test_appender_empty_commit_writes_nothing;
    Alcotest.test_case "appender: refuses a stale since" `Quick
      test_appender_refuses_stale_since;
    Alcotest.test_case "appender: revalidates after a torn append" `Quick
      test_appender_revalidates_after_torn_append;
    qtest prop_appender_counts;
  ]
