(* Journal-shipping replication: follower reads, rotation following,
   quarantine-and-refetch, promotion with epoch fencing, and the
   leader-kill sweep.

   The sweep's key fact: a promoted follower's state is a pure function
   of the complete journal frames at or before the kill point. Every
   byte offset of the workload's journal is classified by running the
   follower's own frame decoder on that exact prefix (so each byte's
   outcome is checked against the acknowledged-commit ledger), and the
   full replica → promote → fence pipeline runs for a representative
   cut of every distinct outcome class — frame boundary, mid-length,
   mid-CRC, and mid-payload kills. Set PENGUIN_REPLICA_SWEEP=full (the
   @replica-suite alias does) for the 100-commit workload. *)
open Relational
open Test_util

module R = Penguin.Replica
module J = Penguin.Journal

let full_sweep = Sys.getenv_opt "PENGUIN_REPLICA_SWEEP" = Some "full"
let store_in = Test_recovery.store_in
let target_in dir = Filename.concat dir "follower.pgn"

let commit dir grade =
  check_ok_e
    (Test_recovery.commit_grade ~io:Penguin.Fsio.default dir ("CS345", 2) grade)

(* A commit that folds the journal into the snapshot: its grade, on
   another enrolment, is as long as the snapshot. *)
let commit_rotating dir =
  check_ok_e
    (Test_recovery.commit_grade ~io:Penguin.Fsio.default dir ("EE280", 1)
       (Test_recovery.rotating_grade dir))

let follower dir =
  check_ok_e
    (R.create ~refetch_limit:2
       ~feed:(R.file_feed (store_in dir))
       ~target:(target_in dir) ())

let catch_up r = check_ok_e (R.poll_until_idle r)

let str_val = function
  | Relational.Value.Str s -> s
  | v -> Alcotest.failf "expected a string value, got %a" Relational.Value.pp v

let db_equal msg a b =
  Alcotest.(check bool)
    msg true
    (Database.equal a.Penguin.Workspace.db b.Penguin.Workspace.db)

(* --- satellite: resumable byte offsets from replay --------------------- *)

let test_replay_offsets () =
  let dir = temp_dir "replica-offsets" in
  Test_recovery.make_store dir;
  List.iter (commit dir) [ "A-"; "B-"; "C+" ];
  let jnl = J.create (J.journal_path (store_in dir)) in
  let r =
    match check_ok_e (J.replay jnl) with
    | Some r -> r
    | None -> Alcotest.fail "journal missing"
  in
  Alcotest.(check int) "three records" 3 r.J.records;
  Alcotest.(check int) "one framed entry per record" 3 (List.length r.J.framed);
  (* Offsets are strictly increasing, start past the header, and end at
     the clean prefix: any of them is a valid resume point for tail. *)
  let offs = List.map fst r.J.framed in
  Alcotest.(check bool) "offsets strictly increase" true
    (List.sort_uniq compare offs = offs);
  Alcotest.(check bool) "first record sits past the header" true
    (List.hd offs > 0);
  List.iteri
    (fun i off ->
      match check_ok_e (J.tail jnl ~off) with
      | None -> Alcotest.fail "tail: journal missing"
      | Some (frames, clean, torn) ->
          Alcotest.(check int) "no torn tail" 0 torn;
          Alcotest.(check int) "tail resumes mid-journal" (3 - i)
            (List.length frames);
          Alcotest.(check int) "tail ends at the clean prefix" r.J.clean_bytes
            clean)
    offs;
  rm_rf dir

(* --- satellite: corrupt errors name the failing record ----------------- *)

let test_corrupt_record_detail () =
  let dir = temp_dir "replica-corrupt" in
  Test_recovery.make_store dir;
  commit dir "A-";
  (* A checksum-valid frame whose payload is not a journal record:
     corruption beyond a torn tail, localized to record index 1. *)
  let jpath = J.journal_path (store_in dir) in
  check_ok_e
    (Penguin.Fsio.default.Penguin.Fsio.write ~path:jpath ~append:true
       (J.frame "(never a record)"));
  let err = check_err_e (Penguin.Recovery.open_store (store_in dir)) in
  let msg = Penguin.Error.to_string err in
  Alcotest.(check bool) "error names the record" true
    (Strutil.contains ~sub:"record 1" msg);
  Alcotest.(check bool) "error names the journal" true
    (Strutil.contains ~sub:jpath msg);
  (* ...and the JSON rendering carries the same coordinates. *)
  let doc = Penguin.Error.to_json err in
  let member k =
    match Obs.Json.member k doc with
    | Some v -> v
    | None -> Alcotest.failf "error json lacks %S" k
  in
  (match member "path" with
  | Obs.Json.Str p -> Alcotest.(check string) "json path" jpath p
  | _ -> Alcotest.fail "error json path is not a string");
  (match Obs.Json.to_float (member "record") with
  | Some f -> Alcotest.(check (float 1e-9)) "json record index" 1. f
  | None -> Alcotest.fail "error json record is not a number");
  rm_rf dir

(* --- following and follower reads -------------------------------------- *)

let test_follow_and_reads () =
  let dir = temp_dir "replica-follow" in
  Test_recovery.make_store dir;
  List.iter (commit dir) [ "A-"; "B-"; "C+" ];
  let r = follower dir in
  let p = catch_up r in
  Alcotest.(check bool) "records were shipped" true (p.R.records >= 3);
  Alcotest.(check int) "nothing left unapplied" 0 p.R.lag_records;
  let lws, _ = Test_recovery.recover dir in
  Alcotest.(check int) "position matches the leader"
    (Penguin.Workspace.version lws)
    (R.position r);
  db_equal "follower state equals the leader" lws (R.workspace r);
  Alcotest.(check string) "the shipped edit is visible" "C+"
    (str_val
       (Test_recovery.grade_of (R.workspace r) ("CS345", 2)));
  (* Reads go through the attached cache at the replication position:
     the second read of the same definition is a warm hit. *)
  let insts = check_ok (R.instances r "omega") in
  Alcotest.(check bool) "instances served" true (insts <> []);
  let hits = (Viewobject.Cache.stats (R.cache r)).Viewobject.Cache.hits in
  let _again = check_ok (R.instances r "omega") in
  Alcotest.(check bool) "follower reads are cache-warm" true
    ((Viewobject.Cache.stats (R.cache r)).Viewobject.Cache.hits > hits);
  let matched = check_ok (R.oql r "omega" "course_id = 'CS345'") in
  Alcotest.(check int) "OQL at the replication position" 1
    (List.length matched);
  (* An idle poll is quiet: no records, no rotation, no resync. *)
  let p = check_ok_e (R.poll r) in
  Alcotest.(check int) "idle poll ships nothing" 0 p.R.records;
  Alcotest.(check bool) "idle poll neither rotates nor resyncs" false
    (p.R.rotated || p.R.resynced);
  (* The follower's own store is independently recoverable: open its
     files as any crashed store. *)
  let fws, _ =
    check_ok_e (Penguin.Recovery.open_store ~repair:true (target_in dir))
  in
  db_equal "follower store round-trips through recovery" lws fws;
  rm_rf dir

(* --- rotation racing an active tailer ---------------------------------- *)

(* A leader compaction (snapshot + journal re-initialization at the
   current version) races the tailer: the follower must detect the new
   base on its next poll, follow the barrier in place — no snapshot
   refetch — and keep tailing the fresh journal with no gap and no
   replay. *)
let test_rotation_followed_in_place () =
  let dir = temp_dir "replica-rotate" in
  Test_recovery.make_store dir;
  List.iter (commit dir) [ "A-"; "B-" ];
  let r = follower dir in
  let _ = catch_up r in
  let v_before = R.position r in
  (* The leader rotates while the tailer sits mid-journal. *)
  let lws, _ = Test_recovery.recover dir in
  check_ok_e (Penguin.Recovery.snapshot ~store:(store_in dir) lws);
  let p = catch_up r in
  Alcotest.(check bool) "the rotation barrier was followed" true p.R.rotated;
  Alcotest.(check bool) "no resync was needed" false p.R.resynced;
  Alcotest.(check int) "no replay: position unchanged over the barrier"
    v_before (R.position r);
  (* Tailing continues from the new base without gaps. *)
  List.iter (commit dir) [ "C+"; "D+" ];
  let p = catch_up r in
  Alcotest.(check int) "both post-rotation commits shipped" 2 p.R.records;
  let lws, _ = Test_recovery.recover dir in
  Alcotest.(check int) "caught up past the rotation"
    (Penguin.Workspace.version lws)
    (R.position r);
  db_equal "state equal across the rotation" lws (R.workspace r);
  rm_rf dir

(* A follower that was down across a rotation lost its window: the
   records between its position and the new base exist only in the
   leader's snapshot, so the poll must fall back to a full resync. *)
let test_rotation_resync_when_behind () =
  let dir = temp_dir "replica-resync" in
  Test_recovery.make_store dir;
  commit dir "A-";
  let r = follower dir in
  let _ = catch_up r in
  (* Three commits land and the last folds the journal: the follower
     missed them all, and the new base is past its position. *)
  commit dir "B-";
  commit dir "C+";
  commit_rotating dir;
  let p = catch_up r in
  Alcotest.(check bool) "fell back to a full resync" true p.R.resynced;
  let lws, _ = Test_recovery.recover dir in
  Alcotest.(check int) "resync caught the follower up"
    (Penguin.Workspace.version lws)
    (R.position r);
  db_equal "state equal after resync" lws (R.workspace r);
  Alcotest.(check string) "post-rotation edit visible" "C+"
    (str_val
       (Test_recovery.grade_of (R.workspace r) ("CS345", 2)));
  rm_rf dir

(* --- torn tails and quarantine ----------------------------------------- *)

let test_torn_tail_and_quarantine () =
  let dir = temp_dir "replica-quarantine" in
  Test_recovery.make_store dir;
  commit dir "A-";
  let r = follower dir in
  let _ = catch_up r in
  let io = Penguin.Fsio.default in
  let jpath = J.journal_path (store_in dir) in
  let clean =
    match check_ok_e (io.Penguin.Fsio.read jpath) with
    | Some c -> c
    | None -> Alcotest.fail "leader journal missing"
  in
  (* Torn bytes at the leader's tail are an append in flight: consumed
     never, complained about never. *)
  check_ok_e (io.Penguin.Fsio.write ~path:jpath ~append:true "torn-tail");
  let p = check_ok_e (R.poll r) in
  Alcotest.(check int) "torn tail ships nothing" 0 p.R.records;
  (match R.status r with
  | R.Following -> ()
  | s -> Alcotest.failf "torn tail degraded the follower: %s" (R.status_label s));
  (* A checksum-valid frame with a garbage payload is corruption: the
     follower refetches it, then quarantines — degraded, still serving,
     never wedged, and the bad bytes never reach its own journal. *)
  check_ok_e
    (io.Penguin.Fsio.write ~path:jpath ~append:false
       (clean ^ J.frame "(never a record)"));
  let _ = check_ok_e (R.poll r) in
  let _ = check_ok_e (R.poll r) in
  (match R.status r with
  | R.Degraded _ -> ()
  | s -> Alcotest.failf "expected quarantine, follower is %s" (R.status_label s));
  Alcotest.(check bool) "degraded follower still serves reads" true
    (check_ok (R.instances r "omega") <> []);
  let fws, _ =
    check_ok_e (Penguin.Recovery.open_store ~repair:true (target_in dir))
  in
  Alcotest.(check int) "no unverified bytes in the follower journal"
    (R.position r)
    (Penguin.Workspace.version fws);
  (* The leader heals (torn-tail repair rewrites the clean prefix, a
     fresh commit lands): the quarantined follower refetches its way
     back to Following on its own. *)
  check_ok_e (io.Penguin.Fsio.write ~path:jpath ~append:false clean);
  commit dir "B-";
  let p = catch_up r in
  Alcotest.(check bool) "healed follower ships again" true (p.R.records >= 1);
  (match R.status r with
  | R.Following -> ()
  | s -> Alcotest.failf "follower did not heal: %s" (R.status_label s));
  let lws, _ = Test_recovery.recover dir in
  db_equal "healed follower equals the leader" lws (R.workspace r);
  (* A frame of the retired two-phase protocol is not a commit batch
     either: the prepared slice carrying the next commit is quarantined,
     not applied, and not skipped. *)
  let read_leader () = Option.get (check_ok_e (io.Penguin.Fsio.read jpath)) in
  let healed = read_leader () in
  commit dir "C+";
  let frames, _, _ = J.decode_frames (read_leader ()) in
  let _, commit_payload = List.nth frames (List.length frames - 1) in
  let prepare =
    List.assoc "prepare" (Test_recovery.legacy_2pc_frames ~commit_payload)
  in
  check_ok_e
    (io.Penguin.Fsio.write ~path:jpath ~append:false
       (healed ^ J.frame prepare));
  let before = R.position r in
  let _ = check_ok_e (R.poll r) in
  let _ = check_ok_e (R.poll r) in
  (match R.status r with
  | R.Degraded _ -> ()
  | s ->
      Alcotest.failf "expected a prepare frame to quarantine, follower is %s"
        (R.status_label s));
  Alcotest.(check int) "the prepared slice is not applied" before
    (R.position r);
  Alcotest.(check string) "the prepared grade is not visible" "B-"
    (str_val (Test_recovery.grade_of (R.workspace r) ("CS345", 2)));
  rm_rf dir

(* A quarantined follower heals even when the leader's remedy is a
   concurrent rotation: the corrupt frame vanishes with the old
   journal, the header probe sees the new base, and the resync lands
   the follower back in Following — quarantine never outlives its
   cause. *)
let test_heal_under_rotation () =
  let dir = temp_dir "replica-heal-rotate" in
  Test_recovery.make_store dir;
  commit dir "A-";
  let r = follower dir in
  let _ = catch_up r in
  let io = Penguin.Fsio.default in
  let jpath = J.journal_path (store_in dir) in
  let clean =
    match check_ok_e (io.Penguin.Fsio.read jpath) with
    | Some c -> c
    | None -> Alcotest.fail "leader journal missing"
  in
  (* Quarantine the follower on a checksum-valid garbage frame. *)
  check_ok_e
    (io.Penguin.Fsio.write ~path:jpath ~append:false
       (clean ^ J.frame "(never a record)"));
  let _ = check_ok_e (R.poll r) in
  let _ = check_ok_e (R.poll r) in
  (match R.status r with
  | R.Degraded _ -> ()
  | s -> Alcotest.failf "expected quarantine, follower is %s" (R.status_label s));
  (* The leader repairs its tail and rotates while the follower is
     still quarantined: a fresh journal at a new base. *)
  check_ok_e (io.Penguin.Fsio.write ~path:jpath ~append:false clean);
  commit dir "B+";
  commit_rotating dir;
  let p = catch_up r in
  (match R.status r with
  | R.Following -> ()
  | s ->
      Alcotest.failf "follower did not heal under rotation: %s"
        (R.status_label s));
  Alcotest.(check bool) "the heal crossed the rotation" true
    (p.R.resynced || p.R.rotated);
  let lws, _ = Test_recovery.recover dir in
  db_equal "healed follower equals the rotated leader" lws (R.workspace r);
  (* The healed follower keeps shipping. *)
  commit dir "A";
  let _ = catch_up r in
  let lws, _ = Test_recovery.recover dir in
  db_equal "post-heal commits ship" lws (R.workspace r);
  Alcotest.(check string) "the post-heal edit is visible" "A"
    (str_val (Test_recovery.grade_of (R.workspace r) ("CS345", 2)));
  rm_rf dir

(* --- promotion and fencing --------------------------------------------- *)

let test_promote_and_fence () =
  let dir = temp_dir "replica-promote" in
  Test_recovery.make_store dir;
  List.iter (commit dir) [ "A-"; "B-" ];
  let r = follower dir in
  let _ = catch_up r in
  (* The deposed leader holds an open handle from before the failover:
     its epoch is 0. *)
  let lws, lreport = check_ok_e (Penguin.Recovery.open_store (store_in dir)) in
  Alcotest.(check int) "pre-promotion epoch" 0 lreport.Penguin.Recovery.epoch;
  (* Promote the follower on its own files. *)
  let pws, epoch = check_ok_e (R.promote r) in
  Alcotest.(check int) "promotion bumps the epoch" 1 epoch;
  Alcotest.(check int) "promoted from the last durable record"
    (Penguin.Workspace.version lws)
    (Penguin.Workspace.version pws);
  check_err_contains_e ~sub:"promoted" (R.poll r);
  (* The promoted store is writable under its new epoch. *)
  let pws' = Test_recovery.apply_edit pws ("CS345", 2) "D+" in
  let _ =
    check_ok_e
      (Penguin.Recovery.persist ~store:(target_in dir)
         ~since:(Penguin.Workspace.version pws) ~expect_epoch:epoch pws')
  in
  let re, report =
    check_ok_e (Penguin.Recovery.open_store (target_in dir))
  in
  Alcotest.(check int) "reopened at the new epoch" 1
    report.Penguin.Recovery.epoch;
  Alcotest.(check string) "post-promotion write durable" "D+"
    (str_val (Test_recovery.grade_of re ("CS345", 2)));
  (* Shared-path failover: promoting the leader's own files fences the
     deposed leader's handle — its next persist refuses before
     appending anything. *)
  let _pws2, epoch2 = check_ok_e (R.promote_store (store_in dir)) in
  Alcotest.(check int) "in-place promotion bumps the epoch too" 1 epoch2;
  let stale = Test_recovery.apply_edit lws ("CS345", 2) "F" in
  let err =
    check_err_e
      (Penguin.Recovery.persist ~store:(store_in dir)
         ~since:(Penguin.Workspace.version lws)
         ~expect_epoch:lreport.Penguin.Recovery.epoch stale)
  in
  Alcotest.(check bool) "the old leader is fenced" true
    (Strutil.contains ~sub:"fenced" (Penguin.Error.to_string err));
  (match err with
  | Penguin.Error.Invalid _ -> ()
  | e ->
      Alcotest.failf "fencing must be non-retryable, got: %s"
        (Penguin.Error.to_string e));
  let check, _ = check_ok_e (Penguin.Recovery.open_store (store_in dir)) in
  Alcotest.(check bool) "the fenced append left no trace" false
    (str_val (Test_recovery.grade_of check ("CS345", 2)) = "F");
  (* Epochs only move forward: pointing the promoted follower (epoch 1)
     at a store still on epoch 0 must refuse — re-following a deposed
     leader would fork the replicated history. *)
  let dir0 = temp_dir "replica-deposed" in
  Test_recovery.make_store dir0;
  commit dir0 "C";
  let err =
    check_err_e
      (R.create ~refetch_limit:2
         ~feed:(R.file_feed (store_in dir0))
         ~target:(target_in dir) ())
  in
  Alcotest.(check bool) "deposed leader refused" true
    (Strutil.contains ~sub:"deposed" (Penguin.Error.to_string err));
  rm_rf dir0;
  rm_rf dir

(* A follower that meets a new epoch restarts its files from the new
   leader's snapshot. Crash it right after that snapshot lands, before
   its journal is rewritten: its files must reopen in the new epoch,
   since the state they hold is the new lineage's. *)
let test_install_crash_keeps_the_epoch () =
  let dir = temp_dir "replica-install-crash" in
  let new_dir = temp_dir "replica-install-crash-new" in
  Test_recovery.make_store dir;
  commit dir "A-";
  (* The new leader: a follower of the old one, promoted, then two
     commits folded into its snapshot. *)
  let _ =
    catch_up
      (check_ok_e
         (R.create ~feed:(R.file_feed (store_in dir)) ~target:(store_in new_dir) ()))
  in
  let _, epoch = check_ok_e (R.promote_store (store_in new_dir)) in
  commit new_dir "C-";
  commit_rotating new_dir;
  (* The old leader commits once more, and an in-memory follower takes
     it: it stands past the fork, in epoch 0. *)
  commit dir "F";
  let disk = Test_disk.mem () in
  let io = Test_disk.io disk in
  let target = "follower.pgn" in
  let _ = catch_up (check_ok_e (R.create ~io ~feed:(R.file_feed (store_in dir)) ~target ())) in
  (* Following the new leader resyncs; the process dies as soon as the
     new snapshot is renamed into place. *)
  Test_disk.set_schedule disk (Test_disk.Once [ `Rename, target, Test_disk.Crash_at `After ]);
  (match R.create ~io ~feed:(R.file_feed (store_in new_dir)) ~target () with
  | exception Test_disk.Crash -> ()
  | _ -> Alcotest.fail "the crash point was not reached");
  let ws, report = check_ok_e (Penguin.Recovery.open_store ~io target) in
  Alcotest.(check string) "the files hold the new leader's state" "C-"
    (str_val (Test_recovery.grade_of ws ("CS345", 2)));
  Alcotest.(check int) "and reopen in its epoch" epoch report.Penguin.Recovery.epoch;
  (* The restarted follower acks under its journal header, which is also
     what a failover compares: it must carry the new epoch before any
     frame of that epoch is appended. *)
  let _ = catch_up (check_ok_e (R.create ~io ~feed:(R.file_feed (store_in new_dir)) ~target ())) in
  let d = check_ok_e (R.durable_position ~io target) in
  Alcotest.(check int) "the restarted follower's position is in the new epoch" epoch
    d.R.d_epoch;
  rm_rf dir;
  rm_rf new_dir

(* --- the leader-kill sweep --------------------------------------------- *)

(* Acknowledged-state ledger: states.(k) is the leader state after k
   acknowledged (persisted + fsynced) commits. *)
let build_workload dir n =
  Test_recovery.make_store dir;
  let states = Array.make (n + 1) None in
  let record k =
    let ws, _ = Test_recovery.recover dir in
    states.(k) <- Some ws
  in
  (* A snapshot larger than the workload's records (each well under 400
     bytes) keeps the whole workload in one journal: a grade that long,
     and as long as the snapshot, so its commit folds the journal before
     the workload starts. *)
  check_ok_e
    (Test_recovery.commit_grade ~io:Penguin.Fsio.default dir ("EE280", 1)
       (Test_recovery.rotating_grade dir ^ String.make (400 * n) 'P'));
  record 0;
  for i = 1 to n do
    (* Distinct values so states are pairwise distinguishable. *)
    commit dir (Fmt.str "G%03d" i);
    record i
  done;
  Array.map
    (function Some ws -> ws | None -> Alcotest.fail "ledger gap")
    states

let test_leader_kill_sweep () =
  let n = if full_sweep then 100 else 12 in
  let dir = temp_dir "replica-sweep-ref" in
  let states = build_workload dir n in
  let io = Penguin.Fsio.default in
  let jbytes =
    match check_ok_e (io.Penguin.Fsio.read (J.journal_path (store_in dir))) with
    | Some c -> c
    | None -> Alcotest.fail "workload journal missing"
  in
  let sbytes =
    match check_ok_e (io.Penguin.Fsio.read (store_in dir)) with
    | Some c -> c
    | None -> Alcotest.fail "workload snapshot missing"
  in
  rm_rf dir;
  let total = String.length jbytes in
  (* Frame boundaries: ends.(k) = the least byte count whose prefix
     holds the header and k complete records. *)
  let frames, clean, torn = J.decode_frames jbytes in
  Alcotest.(check int) "workload journal is clean" 0 torn;
  Alcotest.(check int) "workload journal fully decodes" total clean;
  Alcotest.(check int) "one record per commit" (n + 1) (List.length frames);
  let ends =
    Array.of_list
      (List.map (fun (off, p) -> off + 8 + String.length p) frames)
  in
  let header_end = ends.(0) in
  (* Complete records in a b-byte prefix (excluding the header). *)
  let records_at b =
    let k = ref 0 in
    Array.iteri (fun i e -> if i > 0 && e <= b then incr k) ends;
    !k
  in
  (* Every byte offset: the follower's own decoder, run on that exact
     prefix, must report precisely the acknowledged commits at or
     before the kill — the per-byte half of the sweep. *)
  for b = 0 to total do
    let fs, _, _ = J.decode_frames (String.sub jbytes 0 b) in
    let complete = List.length fs in
    let expect = records_at b + if b >= header_end then 1 else 0 in
    if complete <> expect then
      Alcotest.failf "byte %d: decoded %d frames, the ledger says %d" b
        complete expect
  done;
  (* Pipeline verification per outcome class. Every distinct complete-
     frame count k is exercised at its boundary and at torn cuts inside
     the next frame: 1 byte in (mid-length), 6 bytes in (mid-CRC), and
     mid-payload — each must promote to exactly states.(k). A cut
     strictly inside the header is unreachable (the header is written
     via atomic rename), but b = 0 — death before the rename — is real
     and promotes to the initial state. *)
  let cuts = ref [ 0, 0 ] in
  for k = 0 to n do
    let b0 = ends.(k) in
    let next = if k < n then ends.(k + 1) else total in
    let torn_cuts = [ b0 + 1; b0 + 6; (b0 + next) / 2; next - 1 ] in
    cuts := (b0, k) :: !cuts;
    List.iter
      (fun b -> if b > b0 && b < next then cuts := (b, k) :: !cuts)
      torn_cuts
  done;
  List.iter
    (fun (b, k) ->
      let expect = states.(k) in
      let dead = temp_dir "replica-sweep" in
      let store = store_in dead in
      check_ok_e (Penguin.Fsio.atomic_write io ~path:store sbytes);
      if b > 0 then
        check_ok_e
          (io.Penguin.Fsio.write ~path:(J.journal_path store) ~append:false
             (String.sub jbytes 0 b));
      (* The deposed leader's handle, opened before it died. *)
      let old_leader =
        if b >= header_end then
          Some (check_ok_e (Penguin.Recovery.open_store store))
        else None
      in
      (* Follower bootstraps from the dead leader's files, catches up,
         and promotes in place from its last durable record. *)
      let r =
        check_ok_e
          (R.create ~feed:(R.file_feed store)
             ~target:(Filename.concat dead "follower.pgn") ())
      in
      let _ = catch_up r in
      let ctx = Fmt.str "kill at byte %d/%d (%d commits acked)" b total k in
      if R.position r <> Penguin.Workspace.version expect then
        Alcotest.failf "%s: follower at v%d, ledger says v%d" ctx
          (R.position r)
          (Penguin.Workspace.version expect);
      let pws, epoch = check_ok_e (R.promote r) in
      Alcotest.(check int) (ctx ^ ": promotion epoch") 1 epoch;
      (* Prefix-consistent, no lost acknowledged commit, no duplicate:
         the promoted state IS the ledger state at k. *)
      if
        not
          (Database.equal pws.Penguin.Workspace.db
             expect.Penguin.Workspace.db
          && Penguin.Workspace.version pws = Penguin.Workspace.version expect)
      then
        Alcotest.failf "%s: promoted state is not the acked prefix" ctx;
      (* In-place promotion of the dead leader's own files: same state,
         and the deposed handle is fenced. *)
      let ipws, _ = check_ok_e (R.promote_store store) in
      if not (Database.equal ipws.Penguin.Workspace.db expect.Penguin.Workspace.db)
      then Alcotest.failf "%s: in-place promotion diverged" ctx;
      (match old_leader with
      | None -> ()
      | Some (lws, lreport) ->
          let stale = Test_recovery.apply_edit lws ("CS345", 2) "F" in
          let err =
            check_err_e
              (Penguin.Recovery.persist ~store
                 ~since:(Penguin.Workspace.version lws)
                 ~expect_epoch:lreport.Penguin.Recovery.epoch stale)
          in
          if
            not
              (Strutil.contains ~sub:"fenced" (Penguin.Error.to_string err))
          then Alcotest.failf "%s: deposed leader was not fenced" ctx);
      rm_rf dead)
    !cuts

(* --- the socket feed --------------------------------------------------- *)

(* The serving process ships its store, and holds the store lock while
   it runs, so every commit goes through it. *)
let with_server dir f = fst (Test_server.with_server dir f)

(* One commit of the CS345 grade through the server on [sock]. *)
let serve_commit sock grade =
  let c = Test_server.connect sock in
  Fun.protect
    ~finally:(fun () -> Penguin.Client.close c)
    (fun () ->
      let _v = check_ok_e (Penguin.Client.begin_ c) in
      let _n =
        check_ok_e
          (Penguin.Client.queue c ~object_name:"omega"
             (Fmt.str
                "set GRADES[pid = 2] grade = '%s' where course_id = 'CS345'"
                grade))
      in
      let (_ : int list) = check_ok_e (Penguin.Client.commit c) in
      ())

let test_shipper_feed () =
  let dir = temp_dir "replica-shipper" in
  Test_recovery.make_store dir;
  List.iter (commit dir) [ "A-"; "B-" ];
  with_server dir (fun sock ->
      let r =
        check_ok_e
          (R.create
             ~feed:(Penguin.Shipper.feed ~sock)
             ~target:(target_in dir) ())
      in
      let _ = catch_up r in
      let lws, _ = Test_recovery.recover dir in
      Alcotest.(check int) "socket follower at the leader position"
        (Penguin.Workspace.version lws)
        (R.position r);
      db_equal "socket follower equals the leader" lws (R.workspace r);
      (* New commits ship over the live socket. *)
      serve_commit sock "C+";
      let p = catch_up r in
      Alcotest.(check int) "live tailing over the socket" 1 p.R.records;
      Alcotest.(check string) "socket-shipped edit visible" "C+"
        (str_val
           (Test_recovery.grade_of (R.workspace r) ("CS345", 2))));
  rm_rf dir

(* Kill the transport at every I/O point of the exchange. The response
   envelope is CRC-framed, so a server or connection dying at any byte
   gives the client a typed transient error and never partial data; the
   follower retries the poll and converges with no loss and no
   duplicate. *)
let test_shipper_kill_points () =
  let dir = temp_dir "replica-shipkill" in
  (* A "server" that dies after writing [cut] bytes of the response.
     The socket is bound and listening before the domain spawns, so the
     client's connect never races the setup. *)
  let dying_server sock cut =
    let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind srv (Unix.ADDR_UNIX sock);
    Unix.listen srv 1;
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept srv in
        let buf = Bytes.create 4096 in
        let rec drain () = if Unix.read fd buf 0 4096 > 0 then drain () in
        drain ();
        let resp = J.frame "(ok)" ^ J.frame "full response payload" in
        let k = min cut (String.length resp) in
        ignore (Unix.write_substring fd resp 0 k);
        Unix.close fd;
        Unix.close srv)
  in
  let resp_len = String.length (J.frame "(ok)" ^ J.frame "full response payload") in
  for cut = 0 to resp_len - 1 do
    let sock = Filename.concat dir (Fmt.str "die%d.sock" cut) in
    let srv = dying_server sock cut in
    let feed = Penguin.Shipper.feed ~sock in
    (match feed.R.fetch_journal ~off:0 with
    | Ok _ -> Alcotest.failf "cut at %d bytes produced data" cut
    | Error e ->
        if not (Penguin.Error.retryable e) then
          Alcotest.failf "cut at %d: not transient: %s" cut
            (Penguin.Error.to_string e));
    Domain.join srv;
    Sys.remove sock
  done;
  rm_rf dir

(* --- the follower's own journal ---------------------------------------- *)

let counter name = Obs.Metrics.Counter.value (Obs.Metrics.counter name)

(* A torn write to the follower's own journal is a local fault, not a
   corrupt leader frame: the journal is cut back to its clean length
   before the next append, so every version the follower reports is one
   its files reopen at, a power loss included. A failed fsync of it is
   mended the same way: the journal is written afresh, as the pages the
   fsync dropped are not written back by a later one. *)
let test_torn_own_append () =
  Obs.Metrics.enable ();
  List.iter
    (fun (op, kind, what) ->
      let dir = temp_dir "replica-torn-own" in
      Test_recovery.make_store dir;
      let target = target_in dir in
      let disk =
        Test_disk.real ~schedule:(Test_disk.Once [ op, J.journal_path target, kind ]) ()
      in
      let r =
        check_ok_e
          (R.create ~io:(Test_disk.io disk) ~refetch_limit:2
             ~feed:(R.file_feed (store_in dir)) ~target ())
      in
      List.iter (commit dir) [ "A-"; "B-"; "C+" ];
      let refetches = counter "replica.refetches" in
      let quarantines = counter "replica.quarantines" in
      let first = R.poll r in
      let _ = catch_up r in
      Test_disk.crash disk;
      let lws, _ = Test_recovery.recover dir in
      Alcotest.(check int) "caught up to the leader"
        (Penguin.Workspace.version lws) (R.position r);
      let d = check_ok_e (R.durable_position target) in
      Alcotest.(check int) "the durable position is the reported one"
        (R.position r) d.R.d_version;
      let fws, report = check_ok_e (Penguin.Recovery.open_store target) in
      Alcotest.(check int) "the files reopen at the reported position"
        (R.position r) (Penguin.Workspace.version fws);
      Alcotest.(check int) "no torn bytes left behind" 0
        report.Penguin.Recovery.torn_bytes;
      db_equal "the reopened follower equals the leader" lws fws;
      Alcotest.(check int) "not counted as a refetch" refetches
        (counter "replica.refetches");
      Alcotest.(check int) "not counted as a quarantine" quarantines
        (counter "replica.quarantines");
      let err = check_err_e ~msg:"the faulted round is returned" first in
      Alcotest.(check bool) ("the fault's own error: " ^ what) true
        (Strutil.contains ~sub:what (Penguin.Error.to_string err));
      rm_rf dir)
    [ `Write, Test_disk.Torn, "injected torn write"; `Sync, Test_disk.Hard, "injected hard fault" ]

(* A hard fault on the follower's own files ends the push driver: it
   cannot mend by retrying, and retrying would spin silently. *)
let test_follow_push_own_fault () =
  let dir = temp_dir "replica-push-own-fault" in
  Test_recovery.make_store dir;
  commit dir "A-";
  with_server dir (fun sock ->
      let _ = catch_up (follower dir) in
      let faulty =
        Test_disk.io
          (Test_disk.real
             ~schedule:(Test_disk.Rate { rate = 1.0; kinds = [ Test_disk.Hard ]; ops = [ `Write ] })
             ())
      in
      let r =
        check_ok_e
          (R.create ~io:faulty ~feed:(Penguin.Shipper.feed ~sock)
             ~target:(target_in dir) ())
      in
      serve_commit sock "B-";
      let fired = ref false and rounds = ref 0 in
      let should_stop _ =
        incr rounds;
        fired := !rounds > 200;
        !fired
      in
      let fast =
        { Penguin.Resilience.Policy.default with
          Penguin.Resilience.Policy.base_delay_ns = 1e5;
          max_delay_ns = 1e6 }
      in
      let err =
        check_err_e
          (R.follow_push ~policy:fast ~poll_timeout:0.01 ~should_stop r ~sock)
      in
      Alcotest.(check bool) "returned before should_stop fired" false !fired;
      Alcotest.(check bool) "the own-file fault is returned" false
        (Penguin.Error.retryable err));
  rm_rf dir

(* --- failover: rejoining the promoted store ---------------------------- *)

(* A deposed leader rejoins as a follower of the store promoted in its
   place, and so does a follower that was ahead of the promotion point.
   The promoted store's header carries only (base, epoch): neither may
   keep its own history past the new leader's start, so both resync. *)
let test_rejoin_after_failover () =
  let old_dir = temp_dir "replica-failover-old" in
  let new_dir = temp_dir "replica-failover-new" in
  Test_recovery.make_store old_dir;
  let sync target =
    catch_up
      (check_ok_e
         (R.create ~feed:(R.file_feed (store_in old_dir)) ~target ()))
  in
  let ahead = target_in old_dir in
  commit old_dir "A-";
  let _ = sync (store_in new_dir) in
  let _ = sync ahead in
  (* The old leader commits once more; only [ahead] takes it. *)
  commit old_dir "F";
  let _ = sync ahead in
  let _, epoch = check_ok_e (R.promote_store (store_in new_dir)) in
  Alcotest.(check int) "promotion bumps the epoch" 1 epoch;
  commit new_dir "C-";
  let lws, _ = Test_recovery.recover new_dir in
  List.iter
    (fun (what, target) ->
      let r =
        check_ok_e
          (R.create ~feed:(R.file_feed (store_in new_dir)) ~target ())
      in
      let _ = catch_up r in
      Alcotest.(check int) (what ^ ": at the new leader's epoch") 1 (R.epoch r);
      Alcotest.(check int) (what ^ ": at the new leader's version")
        (Penguin.Workspace.version lws) (R.position r);
      Alcotest.(check string) (what ^ ": holds the new leader's grade") "C-"
        (str_val (Test_recovery.grade_of (R.workspace r) ("CS345", 2)));
      db_equal (what ^ ": equals the new leader") lws (R.workspace r);
      let d = check_ok_e (R.durable_position target) in
      Alcotest.(check (pair int int)) (what ^ ": durable at the new leader")
        (1, Penguin.Workspace.version lws) (d.R.d_epoch, d.R.d_version))
    [ "the deposed leader", store_in old_dir; "the follower ahead", ahead ];
  rm_rf old_dir;
  rm_rf new_dir

let suite =
  [
    Alcotest.test_case "replay reports resumable byte offsets" `Quick
      test_replay_offsets;
    Alcotest.test_case "corrupt errors name the failing record" `Quick
      test_corrupt_record_detail;
    Alcotest.test_case "follow a leader and serve cache-warm reads" `Quick
      test_follow_and_reads;
    Alcotest.test_case "rotation racing the tailer is followed in place"
      `Quick test_rotation_followed_in_place;
    Alcotest.test_case "rotation beyond the follower forces a resync" `Quick
      test_rotation_resync_when_behind;
    Alcotest.test_case "torn tails wait; corrupt frames quarantine and heal"
      `Quick test_torn_tail_and_quarantine;
    Alcotest.test_case "quarantined follower heals under a leader rotation"
      `Quick test_heal_under_rotation;
    Alcotest.test_case "promotion comes up writable and fences the old leader"
      `Quick test_promote_and_fence;
    Alcotest.test_case "a crash mid-install reopens in the new epoch" `Quick
      test_install_crash_keeps_the_epoch;
    Alcotest.test_case "leader killed at every journal byte offset" `Quick
      test_leader_kill_sweep;
    Alcotest.test_case "socket feed ships live commits" `Quick
      test_shipper_feed;
    Alcotest.test_case "shipper killed at every transport I/O point" `Quick
      test_shipper_kill_points;
    Alcotest.test_case "a torn own append is cut back, never acked past"
      `Quick test_torn_own_append;
    Alcotest.test_case "a hard own-file fault ends follow_push" `Quick
      test_follow_push_own_fault;
    Alcotest.test_case "a deposed leader and a follower ahead rejoin by resync"
      `Quick test_rejoin_after_failover;
  ]
