(* Snapshot sessions: queue against a snapshot, group-commit against
   the present, rebase when concurrent commits overlap the session's
   footprint. Concurrency is modelled with persistent values: two
   sessions (or a session and single-shot updates) advance the same
   workspace between one another's begin_ and commit. *)
open Relational
open Viewobject

let ws () = Penguin.University.workspace ()

let instance_of ws course =
  let vo =
    match Penguin.Workspace.find_object ws "omega" with
    | Ok vo -> vo
    | Error e -> Alcotest.fail e
  in
  match
    Instantiate.instantiate
      ~where:(Predicate.eq_str "course_id" course)
      ws.Penguin.Workspace.db vo
  with
  | [ i ] -> i
  | l -> Alcotest.failf "expected 1 instance of %s, got %d" course (List.length l)

let grade_edit ws (course, pid) grade =
  match
    Vo_core.Request.partial_modify (instance_of ws course) ~label:"GRADES"
      ~at:(Tuple.make [ "pid", Value.Int pid ])
      ~f:(fun t -> Tuple.set t "grade" (Value.Str grade))
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "building request on %s: %s" course e

let grade_of ws (course, pid) =
  let r = Database.relation_exn ws.Penguin.Workspace.db "GRADES" in
  match Relation.lookup r [ Value.Str course; Value.Int pid ] with
  | Some t -> Tuple.get t "grade"
  | None -> Alcotest.failf "no GRADES (%s, %d)" course pid

let queue_edit sess ws enrolment grade =
  (* Re-derive the edit from whatever state a rebase presents: the
     retry a real caller (Upql, the CLI) would provide. *)
  let retry ws' = Ok (Some (grade_edit ws' enrolment grade)) in
  match Penguin.Session.queue sess "omega" ~retry (grade_edit ws enrolment grade) with
  | Ok sess -> sess
  | Error e -> Alcotest.failf "queue: %s" (Penguin.Error.to_string e)

let commit_ok ws sess =
  match Penguin.Session.commit ws sess with
  | Ok r -> r
  | Error e -> Alcotest.failf "commit: %s" (Penguin.Error.to_string e)

let test_begin_queue_commit () =
  let w = ws () in
  let s = Penguin.Session.begin_ w in
  Alcotest.(check int) "base version" (Penguin.Workspace.version w)
    (Penguin.Session.base_version s);
  let s = queue_edit s w ("CS345", 2) "A-" in
  let s = queue_edit s w ("EE280", 1) "C" in
  Alcotest.(check int) "pending" 2 (Penguin.Session.pending s);
  (* nothing is published until commit *)
  Alcotest.(check bool) "snapshot untouched" true
    (grade_of w ("CS345", 2) = Value.Str "B+");
  let w', stats = commit_ok w s in
  Alcotest.(check int) "committed" 2 stats.Penguin.Session.committed;
  Alcotest.(check int) "attempts" 1 stats.Penguin.Session.attempts;
  Alcotest.(check bool) "not rebased" false stats.Penguin.Session.rebased;
  Alcotest.(check int) "version advanced by 2"
    (Penguin.Workspace.version w + 2)
    stats.Penguin.Session.version;
  Alcotest.(check bool) "grade 1" true (grade_of w' ("CS345", 2) = Value.Str "A-");
  Alcotest.(check bool) "grade 2" true (grade_of w' ("EE280", 1) = Value.Str "C")

let test_empty_session () =
  let w = ws () in
  let w', stats = commit_ok w (Penguin.Session.begin_ w) in
  Alcotest.(check int) "attempts" 0 stats.Penguin.Session.attempts;
  Alcotest.(check int) "version" (Penguin.Workspace.version w)
    stats.Penguin.Session.version;
  Alcotest.(check bool) "same db" true
    (Database.equal w.Penguin.Workspace.db w'.Penguin.Workspace.db)

let test_nonoverlapping_commit_is_clean () =
  let w = ws () in
  let s = Penguin.Session.begin_ w in
  let s = queue_edit s w ("CS345", 2) "A-" in
  (* A concurrent single-shot update on a different course commits in
     between: footprints are disjoint, so no rebase is needed. *)
  let w, outcome =
    Penguin.Workspace.update w "omega" (grade_edit w ("EE280", 1) "D")
  in
  (match outcome.Vo_core.Engine.result with
  | Transaction.Committed _ -> ()
  | Transaction.Rolled_back { reason; _ } -> Alcotest.fail reason);
  Alcotest.(check bool) "divergence clean" true
    (Penguin.Session.divergence w s = Penguin.Session.Clean);
  let w', stats = commit_ok w s in
  Alcotest.(check bool) "not rebased" false stats.Penguin.Session.rebased;
  Alcotest.(check bool) "both effects" true
    (grade_of w' ("CS345", 2) = Value.Str "A-"
    && grade_of w' ("EE280", 1) = Value.Str "D")

let test_conflicting_commit_rebases () =
  let w = ws () in
  let s = Penguin.Session.begin_ w in
  let s = queue_edit s w ("CS345", 2) "A-" in
  (* A concurrent update touches the same instance (same course, other
     student): the session's read footprint overlaps, forcing a rebase. *)
  let w, outcome =
    Penguin.Workspace.update w "omega" (grade_edit w ("CS345", 1) "F")
  in
  (match outcome.Vo_core.Engine.result with
  | Transaction.Committed _ -> ()
  | Transaction.Rolled_back { reason; _ } -> Alcotest.fail reason);
  (match Penguin.Session.divergence w s with
  | Penguin.Session.Conflicting (_ :: _) -> ()
  | _ -> Alcotest.fail "expected a conflict");
  let w', stats = commit_ok w s in
  Alcotest.(check bool) "rebased" true stats.Penguin.Session.rebased;
  Alcotest.(check int) "attempts" 2 stats.Penguin.Session.attempts;
  Alcotest.(check bool) "concurrent effect kept" true
    (grade_of w' ("CS345", 1) = Value.Str "F");
  Alcotest.(check bool) "session effect applied" true
    (grade_of w' ("CS345", 2) = Value.Str "A-")

let test_same_tuple_edits_commit_in_order () =
  let w = ws () in
  let s = Penguin.Session.begin_ w in
  (* Two session edits to the same grade: write-write within the batch;
     commit chunks them in arrival order, re-deriving the second. *)
  let s = queue_edit s w ("CS345", 2) "A-" in
  let s = queue_edit s w ("CS345", 2) "A+" in
  let w', stats = commit_ok w s in
  Alcotest.(check int) "committed" 2 stats.Penguin.Session.committed;
  Alcotest.(check bool) "last edit wins" true
    (grade_of w' ("CS345", 2) = Value.Str "A+")

let units_of ws course =
  let r = Database.relation_exn ws.Penguin.Workspace.db "COURSES" in
  match Relation.lookup r [ Value.Str course ] with
  | Some t -> Tuple.get t "units"
  | None -> Alcotest.failf "no COURSES %s" course

let test_statement_rebase_rederives_each_instance () =
  let w = ws () in
  (* One statement, two matching instances (the grad courses). *)
  let s =
    match
      Penguin.Session.queue_stmt (Penguin.Session.begin_ w) "omega"
        "set units = 4 where level = 'grad'"
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "queue_stmt: %s" (Penguin.Error.to_string e)
  in
  Alcotest.(check int) "one request per instance" 2 (Penguin.Session.pending s);
  (* A concurrent commit to one of them forces a rebase: each request
     must re-derive its own instance, not the statement's first. *)
  let w, outcome =
    Penguin.Workspace.update w "omega" (grade_edit w ("CS345", 1) "F")
  in
  (match outcome.Vo_core.Engine.result with
  | Transaction.Committed _ -> ()
  | Transaction.Rolled_back { reason; _ } -> Alcotest.fail reason);
  let w', stats = commit_ok w s in
  Alcotest.(check bool) "rebased" true stats.Penguin.Session.rebased;
  Alcotest.(check int) "both committed" 2 stats.Penguin.Session.committed;
  List.iter
    (fun course ->
      Alcotest.(check bool) (course ^ " edited") true
        (units_of w' course = Value.Int 4))
    [ "CS345"; "EE280" ];
  Alcotest.(check bool) "concurrent effect kept" true
    (grade_of w' ("CS345", 1) = Value.Str "F")

let test_self_colliding_statement_is_invalid () =
  (* Two grad courses renamed to one id: the second rename collides with
     the session's own first one. Every fresh session on the unchanged
     workspace fails the same way, so the refusal must not be a
     retryable conflict. *)
  let w = ws () in
  for _ = 1 to 2 do
    match
      Result.bind
        (Penguin.Session.queue_stmt (Penguin.Session.begin_ w) "omega"
           "set course_id = 'X1' where level = 'grad'")
        (Penguin.Session.commit w)
    with
    | Ok _ -> Alcotest.fail "the colliding rename committed"
    | Error e ->
        Alcotest.(check string) "kind" "invalid" (Penguin.Error.kind e);
        Alcotest.(check bool) "not retryable" false (Penguin.Error.retryable e)
  done

let test_rebase_drops_noop () =
  let w = ws () in
  let s = Penguin.Session.begin_ w in
  (* Queue an edit whose retry reports "already satisfied": when the
     conflicting concurrent commit below forces a rebase, the update is
     dropped instead of replayed. *)
  let s =
    match
      Penguin.Session.queue s "omega"
        ~retry:(fun _ -> Ok None)
        (grade_edit w ("CS345", 2) "A-")
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "queue: %s" (Penguin.Error.to_string e)
  in
  let w, outcome =
    Penguin.Workspace.update w "omega" (grade_edit w ("CS345", 1) "F")
  in
  (match outcome.Vo_core.Engine.result with
  | Transaction.Committed _ -> ()
  | Transaction.Rolled_back { reason; _ } -> Alcotest.fail reason);
  let w', stats = commit_ok w s in
  Alcotest.(check bool) "rebased" true stats.Penguin.Session.rebased;
  Alcotest.(check int) "nothing committed" 0 stats.Penguin.Session.committed;
  Alcotest.(check bool) "state is the concurrent one" true
    (Database.equal w.Penguin.Workspace.db w'.Penguin.Workspace.db)

let test_barrier_forces_rebase () =
  let w = ws () in
  let s = Penguin.Session.begin_ w in
  let s = queue_edit s w ("CS345", 2) "A-" in
  (* A wholesale database swap is a barrier: history since the snapshot
     is unknown, so the session must rebase unconditionally. *)
  let w = Penguin.Workspace.with_db w w.Penguin.Workspace.db in
  Alcotest.(check bool) "unknown history" true
    (Penguin.Session.divergence w s = Penguin.Session.Unknown_history);
  let w', stats = commit_ok w s in
  Alcotest.(check bool) "rebased" true stats.Penguin.Session.rebased;
  Alcotest.(check bool) "effect applied" true
    (grade_of w' ("CS345", 2) = Value.Str "A-")

let test_commit_log_records_updates () =
  let w = ws () in
  let v0 = Penguin.Workspace.version w in
  let s = Penguin.Session.begin_ w in
  let s = queue_edit s w ("CS345", 2) "A-" in
  let s = queue_edit s w ("EE280", 1) "C" in
  let w', stats = commit_ok w s in
  Alcotest.(check int) "log version" (v0 + 2) (Penguin.Workspace.version w');
  Alcotest.(check int) "stats version" (v0 + 2) stats.Penguin.Session.version;
  let entries = Penguin.Commit_log.entries_since w'.Penguin.Workspace.log v0 in
  Alcotest.(check int) "two entries" 2 (List.length entries);
  Alcotest.(check (list int)) "entry versions" [ v0 + 1; v0 + 2 ]
    (List.map (fun e -> e.Penguin.Commit_log.version) entries)

(* A session older than its log's retention floor: the log was trimmed
   past the session's base, so its history is unknown and it rebases
   through [Unknown_history] — and lands the same database it lands on
   the untrimmed log, where it is clean. [penguin serve] never trims
   past an open or parked session's base, so this stale-session path is
   reachable only below the server, here at the [Session] level. *)
let test_stale_session_below_trimmed_floor () =
  Obs.Metrics.enable ();
  let unknown = Obs.Metrics.counter "session.rebase_unknown_history" in
  let w = ws () in
  let s = Penguin.Session.begin_ w in
  let s = queue_edit s w ("CS345", 2) "A-" in
  let w, outcome =
    Penguin.Workspace.update w "omega" (grade_edit w ("EE280", 1) "D")
  in
  (match outcome.Vo_core.Engine.result with
  | Transaction.Committed _ -> ()
  | Transaction.Rolled_back { reason; _ } -> Alcotest.fail reason);
  let log = w.Penguin.Workspace.log in
  let trimmed =
    { w with
      Penguin.Workspace.log =
        Penguin.Commit_log.trim log ~keep_after:(Penguin.Commit_log.version log)
    }
  in
  Alcotest.(check bool) "base below the floor" true
    (Penguin.Session.base_version s
    < Penguin.Commit_log.truncated trimmed.Penguin.Workspace.log);
  Alcotest.(check bool) "unknown history" true
    (Penguin.Session.divergence trimmed s = Penguin.Session.Unknown_history);
  let commit ws =
    match Penguin.Session.commit_window ws [ s ] with
    | ws', [ Ok o ] -> ws', o
    | _, [ Error e ] -> Alcotest.failf "commit: %s" (Penguin.Error.to_string e)
    | _ -> Alcotest.fail "one verdict per session"
  in
  let before = Obs.Metrics.Counter.value unknown in
  let w_full, full = commit w in
  Alcotest.(check bool) "clean on the untrimmed log" false
    full.Penguin.Session.rebased;
  Alcotest.(check int) "no unknown-history rebase on the untrimmed log" before
    (Obs.Metrics.Counter.value unknown);
  let w_trim, trim = commit trimmed in
  Alcotest.(check bool) "rebased on the trimmed log" true
    trim.Penguin.Session.rebased;
  Alcotest.(check int) "counted as an unknown-history rebase" (before + 1)
    (Obs.Metrics.Counter.value unknown);
  Alcotest.(check (list int)) "same versions" full.Penguin.Session.versions
    trim.Penguin.Session.versions;
  Alcotest.(check bool) "same database" true
    (Database.equal w_full.Penguin.Workspace.db w_trim.Penguin.Workspace.db);
  Alcotest.(check bool) "both effects" true
    (grade_of w_trim ("CS345", 2) = Value.Str "A-"
    && grade_of w_trim ("EE280", 1) = Value.Str "D")

let suite =
  [
    Alcotest.test_case "begin, queue, commit" `Quick test_begin_queue_commit;
    Alcotest.test_case "empty session commits trivially" `Quick
      test_empty_session;
    Alcotest.test_case "non-overlapping concurrent commit" `Quick
      test_nonoverlapping_commit_is_clean;
    Alcotest.test_case "conflicting concurrent commit rebases" `Quick
      test_conflicting_commit_rebases;
    Alcotest.test_case "same-tuple session edits commit in order" `Quick
      test_same_tuple_edits_commit_in_order;
    Alcotest.test_case "a statement's rebase re-derives each instance" `Quick
      test_statement_rebase_rederives_each_instance;
    Alcotest.test_case "a self-colliding statement is invalid" `Quick
      test_self_colliding_statement_is_invalid;
    Alcotest.test_case "rebase drops no-op updates" `Quick
      test_rebase_drops_noop;
    Alcotest.test_case "barrier forces rebase" `Quick test_barrier_forces_rebase;
    Alcotest.test_case "commit log records session updates" `Quick
      test_commit_log_records_updates;
    Alcotest.test_case "a session below a trimmed log's floor rebases" `Quick
      test_stale_session_below_trimmed_floor;
  ]
