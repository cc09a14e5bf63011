(* The serving front end over a real Unix-domain socket: round-trip
   durability, breaker degraded read-only serving, wire-level robustness
   (malformed, torn and oversized frames must be answered or dropped
   per-connection without killing the accept loop; frames pipelined
   behind a commit are answered once its window flushes), the stats
   surface and EINTR hardening. The window semantics — batching,
   per-request culprits, disconnect while parked, admission shedding — are
   checked on the decision core by the simulator in test_server_sim.ml. *)
open Test_util

module C = Penguin.Client
module S = Penguin.Server
module E = Penguin.Error
module F = Penguin.Fsio

let store_in = Test_recovery.store_in

(* The university fixture plus [courses] disjoint course/student/grade
   triples: concurrent sessions each editing their own course stage
   non-overlapping deltas, so a window batches them conflict-free. *)
let make_bench_store dir courses =
  let ins rel bindings db =
    match Relational.Database.insert db rel (Relational.Tuple.make bindings) with
    | Ok db -> db
    | Error e -> Alcotest.failf "seed %s: %s" rel (Relational.Database.error_to_string e)
  in
  let rec add db i =
    if i > courses then db
    else
      let course = Fmt.str "BENCH%03d" i in
      let pid = 2000 + i in
      db
      |> ins "COURSES"
           [ "course_id", vs course; "title", vs (Fmt.str "Bench %d" i);
             "units", vi 3; "level", vs "grad";
             "dept_name", vs "Computer Science" ]
      |> ins "PEOPLE"
           [ "pid", vi pid; "name", vs (Fmt.str "S%d" i);
             "dept_name", vs "Computer Science" ]
      |> ins "STUDENT"
           [ "pid", vi pid; "degree_program", vs "MS CS"; "year", vi 1 ]
      |> ins "GRADES" [ "course_id", vs course; "pid", vi pid; "grade", vs "A" ]
      |> fun db -> add db (i + 1)
  in
  let ws = Penguin.University.workspace () in
  let ws = { ws with Penguin.Workspace.db = add ws.Penguin.Workspace.db 1 } in
  check_ok_e (Penguin.Store.save_file ws (store_in dir))

(* The socket file appears at bind, a moment before the server
   listens: wait until a connection is accepted. *)
let await_sock sock =
  let rec go n =
    match C.connect ~sock with
    | Ok c -> C.close c
    | Error _ when n > 0 ->
        Unix.sleepf 0.005;
        go (n - 1)
    | Error e -> Alcotest.failf "server socket never accepted: %s" (E.to_string e)
  in
  go 1000

(* Run [f sock] against a server in a sibling domain; returns [f]'s
   result and the server's serving totals after a clean shutdown. *)
let with_server ?io ?config ?breaker dir f =
  let sock = Filename.concat dir "serve.sock" in
  let srv =
    Domain.spawn (fun () ->
        S.serve ?io ?config ?breaker ~store:(store_in dir) ~sock ())
  in
  let result = Fun.protect ~finally:(fun () -> ()) (fun () ->
      await_sock sock;
      f sock)
  in
  (match C.connect ~sock with
  | Ok c ->
      (* Idempotent: if [f] already shut the server down, the connect or
         the shutdown fails and we fall through to the join. *)
      ignore (C.shutdown c);
      C.close c
  | Error _ -> ());
  let stats = check_ok_e (Domain.join srv) in
  result, stats

let connect sock = check_ok_e (C.connect ~sock)

let grade_stmt ~course ~grade =
  Fmt.str "set GRADES[pid = %d] grade = '%s' where course_id = 'BENCH%03d'"
    (2000 + course) grade course

(* A session round against course [course] through the blocking API. *)
let commit_grade c ~course ~grade =
  let _v = check_ok_e (C.begin_ c) in
  let n = check_ok_e (C.queue c ~object_name:"omega" (grade_stmt ~course ~grade)) in
  Alcotest.(check int) "one staged update" 1 n;
  check_ok_e (C.commit c)

(* --- round-trip durability --------------------------------------------- *)

let test_roundtrip () =
  let dir = temp_dir "server-roundtrip" in
  make_bench_store dir 2;
  let (), stats =
    with_server dir (fun sock ->
        let c = connect sock in
        check_ok_e (C.ping c);
        let v0 = check_ok_e (C.begin_ c) in
        let versions = commit_grade c ~course:1 ~grade:"A+" in
        Alcotest.(check (list int)) "one committed version" [ v0 + 1 ] versions;
        (* The committed edit is readable through the server's cache. *)
        let n, text =
          check_ok_e (C.oql c ~object_name:"omega" "course_id = 'BENCH001'")
        in
        Alcotest.(check int) "one instance" 1 n;
        Alcotest.(check bool) "grade visible through the cache" true
          (Relational.Strutil.contains ~sub:"grade=A+" text);
        C.close c)
  in
  Alcotest.(check int) "one commit acked" 1 stats.S.commits;
  Alcotest.(check int) "one window persisted" 1 stats.S.windows;
  (* Durable: a fresh process replays the journal to the same state. *)
  let ws, _ = check_ok_e (Penguin.Recovery.open_store (store_in dir)) in
  let cache = Penguin.Workspace.attach_cache ws in
  let instances =
    check_ok (Viewobject.Cache.oql cache "omega" "course_id = 'BENCH001'")
  in
  Alcotest.(check bool) "edit survives reopen" true
    (Relational.Strutil.contains ~sub:"grade=A+"
       (String.concat "" (List.map Viewobject.Instance.to_ascii instances)));
  rm_rf dir

(* --- breaker: degraded read-only serving -------------------------------- *)

let test_breaker_degraded_reads () =
  let dir = temp_dir "server-degraded" in
  make_bench_store dir 2;
  (* Prime the journal with one clean commit so the serve-time open
     finds it initialized, then, once the server is up, fail every
     fsync hard: the first flush trips the threshold-1 breaker. *)
  let _ =
    check_ok_e
      (Test_recovery.commit_grade ~io:F.default dir ("CS345", 2) "B+")
  in
  let disk = Test_disk.real () in
  let breaker = Penguin.Resilience.Breaker.create ~label:"test" ~threshold:1 () in
  let (), stats =
    with_server ~io:(Test_disk.io disk) ~breaker dir (fun sock ->
        Test_disk.set_schedule disk
          (Test_disk.Rate { rate = 1.0; kinds = [ Test_disk.Hard ]; ops = [ `Sync ] });
        let c = connect sock in
        let _ = check_ok_e (C.begin_ c) in
        let _ =
          check_ok_e
            (C.queue c ~object_name:"omega" (grade_stmt ~course:1 ~grade:"D"))
        in
        (* First commit reaches the durable path and fails it: typed,
           non-retryable Io — and the breaker trips. *)
        let e = check_err_e (C.commit c) in
        Alcotest.(check string) "durability fault surfaces as Io" "io"
          (E.kind e);
        Alcotest.(check bool) "breaker tripped" true
          (Penguin.Resilience.Breaker.degraded breaker);
        (* Writes are now refused up front with Busy... *)
        let _ = check_ok_e (C.begin_ c) in
        let _ =
          check_ok_e
            (C.queue c ~object_name:"omega" (grade_stmt ~course:1 ~grade:"D"))
        in
        let e = check_err_e (C.commit c) in
        Alcotest.(check string) "degraded mode refuses writes with Busy"
          "busy" (E.kind e);
        (* ...while reads keep serving through the cache. *)
        let n, _ =
          check_ok_e (C.oql c ~object_name:"omega" "course_id = 'BENCH001'")
        in
        Alcotest.(check int) "reads still served degraded" 1 n;
        C.close c)
  in
  Alcotest.(check int) "nothing acked durable" 0 stats.S.commits;
  rm_rf dir

(* A disk model over the real files whose first fsync of the store's
   journal (the first window's durability point) fails. *)
let journal_sync_fault kind dir =
  Test_disk.real
    ~schedule:
      (Test_disk.Once [ `Sync, Penguin.Journal.journal_path (store_in dir), kind ])
    ()

let reopen dir =
  let ws, _ = check_ok_e (Penguin.Recovery.open_store (store_in dir)) in
  ws

let grade_on_disk dir ~course =
  let ws = reopen dir in
  let r = Relational.Database.relation_exn ws.Penguin.Workspace.db "GRADES" in
  match
    Relational.Relation.lookup r
      [ vs (Fmt.str "BENCH%03d" course); vi (2000 + course) ]
  with
  | Some t -> Relational.Tuple.get t "grade"
  | None -> Alcotest.failf "no GRADES row for BENCH%03d" course

(* A failed fsync leaves the window's record in the journal file, but
   maybe not on disk. The server's retry must write it again rather
   than trust a second fsync, and ack; later windows must keep
   committing, and a crash must keep every acked commit. *)
let test_transient_fsync_fault () =
  let dir = temp_dir "server-fsync-fault" in
  make_bench_store dir 2;
  let v0 = Penguin.Workspace.version (reopen dir) in
  let disk = journal_sync_fault Test_disk.Transient dir in
  let (), stats =
    with_server ~io:(Test_disk.io disk) dir (fun sock ->
        let c = connect sock in
        Alcotest.(check (list int)) "the faulted commit acks" [ v0 + 1 ]
          (commit_grade c ~course:1 ~grade:"B");
        Alcotest.(check (list int)) "the next commit acks" [ v0 + 2 ]
          (commit_grade c ~course:2 ~grade:"C");
        C.close c)
  in
  Alcotest.(check int) "two commits acked" 2 stats.S.commits;
  Test_disk.crash disk;
  Alcotest.(check int) "the store reopens at the acked version" (v0 + 2)
    (Penguin.Workspace.version (reopen dir));
  Alcotest.(check bool) "the faulted commit is on disk" true
    (grade_on_disk dir ~course:1 = vs "B");
  rm_rf dir

(* Past its cooldown an open breaker is half-open: the next commit must
   reach the appender as the probe, and on a healthy disk it acks and
   re-closes the breaker. The probe is a different commit from the one
   that failed: it replaces the failed record, which must not come back
   on reopen, since its client was told it failed. *)
let test_breaker_recloses () =
  let dir = temp_dir "server-breaker-recloses" in
  make_bench_store dir 2;
  let v0 = Penguin.Workspace.version (reopen dir) in
  let disk = journal_sync_fault Test_disk.Hard dir in
  let breaker =
    Penguin.Resilience.Breaker.create ~label:"test" ~threshold:1
      ~cooldown_ns:1e6 ()
  in
  let (), stats =
    with_server ~io:(Test_disk.io disk) ~breaker dir (fun sock ->
        let c = connect sock in
        let _ = check_ok_e (C.begin_ c) in
        let _ =
          check_ok_e
            (C.queue c ~object_name:"omega" (grade_stmt ~course:1 ~grade:"D"))
        in
        Alcotest.(check string) "the hard fault surfaces as Io" "io"
          (E.kind (check_err_e (C.commit c)));
        Alcotest.(check bool) "breaker tripped" true
          (Penguin.Resilience.Breaker.degraded breaker);
        Unix.sleepf 0.01;
        Alcotest.(check (list int)) "the probe commit acks" [ v0 + 1 ]
          (commit_grade c ~course:1 ~grade:"E");
        Alcotest.(check bool) "the probe re-closed the breaker" true
          (Penguin.Resilience.Breaker.state breaker
          = Penguin.Resilience.Breaker.Closed);
        C.close c)
  in
  Alcotest.(check int) "one commit acked" 1 stats.S.commits;
  Test_disk.crash disk;
  Alcotest.(check int) "the store reopens at the acked version" (v0 + 1)
    (Penguin.Workspace.version (reopen dir));
  Alcotest.(check bool) "it holds the probe, not the failed commit" true
    (grade_on_disk dir ~course:1 = vs "E");
  rm_rf dir

(* A follower that pulls between a failed window and the next one must
   not see the failed record the leader later cuts off: it is served
   the journal up to the last acked version, and then holds what the
   leader holds. *)
let test_follower_skips_failed_window () =
  let dir = temp_dir "server-follower-failed-window" in
  make_bench_store dir 2;
  (* A journal for the follower to locate itself in. *)
  let _ =
    check_ok_e (Test_recovery.commit_grade ~io:F.default dir ("CS345", 2) "B+")
  in
  let v0 = Penguin.Workspace.version (reopen dir) in
  let disk = journal_sync_fault Test_disk.Hard dir in
  let breaker =
    Penguin.Resilience.Breaker.create ~label:"test" ~threshold:1
      ~cooldown_ns:1e6 ()
  in
  let target = Filename.concat dir "follower.pgn" in
  let grade ws =
    let r = Relational.Database.relation_exn ws.Penguin.Workspace.db "GRADES" in
    Option.map
      (fun t -> Relational.Tuple.get t "grade")
      (Relational.Relation.lookup r [ vs "BENCH001"; vi 2001 ])
  in
  let (), _ =
    with_server ~io:(Test_disk.io disk) ~breaker dir (fun sock ->
        let r =
          check_ok_e
            (Penguin.Replica.create ~feed:(Penguin.Shipper.feed ~sock) ~target
               ())
        in
        let c = connect sock in
        let _ = check_ok_e (C.begin_ c) in
        let _ =
          check_ok_e
            (C.queue c ~object_name:"omega" (grade_stmt ~course:1 ~grade:"D"))
        in
        let _ = check_err_e (C.commit c) in
        let _ = check_ok_e (Penguin.Replica.poll_until_idle r) in
        Alcotest.(check int) "the follower stays at the acked version" v0
          (Penguin.Replica.position r);
        Unix.sleepf 0.01;
        Alcotest.(check (list int)) "the probe commit acks" [ v0 + 1 ]
          (commit_grade c ~course:1 ~grade:"E");
        let _ = check_ok_e (Penguin.Replica.poll_until_idle r) in
        Alcotest.(check int) "the follower reaches the probe" (v0 + 1)
          (Penguin.Replica.position r);
        Alcotest.(check bool) "the follower holds the probe's grade" true
          (grade (Penguin.Replica.workspace r) = Some (vs "E"));
        C.close c)
  in
  Alcotest.(check bool) "so does the leader" true
    (grade (reopen dir) = Some (vs "E"));
  rm_rf dir

(* --- wire robustness ---------------------------------------------------- *)

let raw_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let write_raw fd s = ignore (Unix.write_substring fd s 0 (String.length s))

(* Read everything until EOF and decode the journal frames. *)
let read_frames fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  drain ();
  let frames, _, _ =
    Penguin.Journal.decode_frames (Buffer.contents buf)
  in
  List.map snd frames

let test_corrupt_frame_answered_in_band () =
  let dir = temp_dir "server-corrupt-frame" in
  make_bench_store dir 1;
  let (), _stats =
    with_server dir (fun sock ->
        let fd = raw_connect sock in
        (* A well-framed ping with its last payload byte flipped: the
           CRC fails, the server answers in-band and drops the conn. *)
        let frame = Bytes.of_string (Penguin.Journal.frame "(ping)") in
        let last = Bytes.length frame - 1 in
        Bytes.set frame last (Char.chr (Char.code (Bytes.get frame last) lxor 0xFF));
        write_raw fd (Bytes.to_string frame);
        (match read_frames fd with
        | [ reply ] ->
            Alcotest.(check bool) "in-band corrupt error" true
              (Relational.Strutil.contains ~sub:"(error corrupt" reply)
        | l -> Alcotest.failf "expected one error frame, got %d" (List.length l));
        Unix.close fd;
        (* The accept loop survived: a fresh client still serves. *)
        let c = connect sock in
        check_ok_e (C.ping c);
        C.close c)
  in
  rm_rf dir

let test_oversized_frame_answered_in_band () =
  let dir = temp_dir "server-oversized" in
  make_bench_store dir 1;
  let (), _stats =
    with_server dir (fun sock ->
        let fd = raw_connect sock in
        (* A length prefix past the frame bound: corrupt before any
           payload arrives — answered and dropped, not buffered. *)
        let b = Bytes.create 8 in
        Bytes.set_int32_be b 0 0x7FFFFFFFl;
        Bytes.set_int32_be b 4 0l;
        write_raw fd (Bytes.to_string b);
        (match read_frames fd with
        | [ reply ] ->
            Alcotest.(check bool) "oversized length is corrupt" true
              (Relational.Strutil.contains ~sub:"(error corrupt" reply)
        | l -> Alcotest.failf "expected one error frame, got %d" (List.length l));
        Unix.close fd;
        let c = connect sock in
        check_ok_e (C.ping c);
        C.close c)
  in
  rm_rf dir

let test_malformed_and_torn_requests () =
  let dir = temp_dir "server-malformed" in
  make_bench_store dir 1;
  let (), _stats =
    with_server dir (fun sock ->
        (* A well-framed but meaningless request: typed Invalid in-band,
           and the SAME connection keeps serving. *)
        let fd = raw_connect sock in
        write_raw fd (Penguin.Journal.frame "(bogus request)");
        write_raw fd (Penguin.Journal.frame "(ping)");
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        (match read_frames fd with
        | [ err; pong ] ->
            Alcotest.(check bool) "typed invalid answer" true
              (Relational.Strutil.contains ~sub:"(error invalid" err);
            Alcotest.(check string) "connection survives a bad request"
              "(ok pong)" pong
        | l -> Alcotest.failf "expected two frames, got %d" (List.length l));
        Unix.close fd;
        (* A torn request — half a frame, then the client dies. The
           server drops the connection; the accept loop lives on. *)
        let fd = raw_connect sock in
        let frame = Penguin.Journal.frame "(ping)" in
        write_raw fd (String.sub frame 0 6);
        Unix.close fd;
        let c = connect sock in
        check_ok_e (C.ping c);
        C.close c)
  in
  rm_rf dir

(* --- one statement, one transaction ---------------------------------------- *)

(* Read until [n] frames have arrived, without waiting for EOF. *)
let read_n_frames fd n =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    let frames, _, _ = Penguin.Journal.decode_frames (Buffer.contents buf) in
    if List.length frames >= n then List.map snd frames
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> List.map snd frames
      | k ->
          Buffer.add_subbytes buf chunk 0 k;
          go ()
  in
  go ()

(* Renaming every grad course to one id: each rename stages against the
   snapshot, but the second collides with the first in the session's
   own arrival-order rounds. That failure involves no other commit, so
   the answer is a non-retryable Invalid — a retrying client would
   otherwise spin — and nothing commits. *)
let test_self_colliding_statement_is_invalid () =
  let dir = temp_dir "server-self-collide" in
  make_bench_store dir 2;
  let stmt = "set course_id = 'X1' where level = 'grad'" in
  let answer, stats =
    with_server dir (fun sock ->
        let fd = raw_connect sock in
        List.iter
          (fun r -> write_raw fd (Penguin.Journal.frame r))
          [ "(begin)";
            Relational.Sexp.to_string
              (Relational.Sexp.List
                 [ Relational.Sexp.Atom "queue"; Relational.Sexp.Atom "omega";
                   Relational.Sexp.Atom stmt ]);
            "(commit)" ];
        let frames = read_n_frames fd 3 in
        Unix.close fd;
        match frames with
        | [ _begun; _queued; answer ] -> answer
        | l -> Alcotest.failf "expected three frames, got %d" (List.length l))
  in
  (match Relational.Sexp.parse answer with
  | Ok
      (Relational.Sexp.List
         [ Atom "error"; Atom "invalid"; Atom "false"; Atom reason ]) ->
      Alcotest.(check bool) "names the statement" true
        (Relational.Strutil.contains ~sub:stmt reason);
      Alcotest.(check bool) "gives the translator's reason" true
        (Relational.Strutil.contains ~sub:"merge with it is not allowed" reason)
  | _ -> Alcotest.failf "expected (error invalid false ...), got %s" answer);
  Alcotest.(check int) "nothing committed" 0 stats.S.commits;
  rm_rf dir

(* --- one statement over many instances ------------------------------------ *)

(* A statement stages one update per instance it matches, and the server
   commits it whole, as [Session.commit] does, however many instances
   that is: no admission bound counts a statement's updates. *)
let test_wide_statement_commits_whole () =
  let dir = temp_dir "server-wide-statement" in
  make_bench_store dir 200;
  let stmt = "set units = 4 where level = 'grad'" in
  let ws0 = reopen dir in
  let sess =
    check_ok_e
      (Penguin.Session.queue_stmt (Penguin.Session.begin_ ws0) "omega" stmt)
  in
  let staged = Penguin.Session.pending sess in
  let expected, _ = check_ok_e (Penguin.Session.commit ws0 sess) in
  Alcotest.(check bool) "the statement matches more than 128 instances" true
    (staged > 128);
  let answer, stats =
    with_server dir (fun sock ->
        let c = connect sock in
        let _ = check_ok_e (C.begin_ c) in
        let answer =
          Result.bind (C.queue c ~object_name:"omega" stmt) (fun n ->
              Alcotest.(check int) "every instance staged" staged n;
              C.commit c)
        in
        C.close c;
        answer)
  in
  (match answer with
  | Ok versions ->
      Alcotest.(check int) "one version per instance" staged
        (List.length versions)
  | Error e ->
      Alcotest.failf "the statement was refused: %s (retryable %b)"
        (E.to_string e) (E.retryable e));
  Alcotest.(check int) "one commit acked" 1 stats.S.commits;
  Alcotest.(check int) "in one window" 1 stats.S.windows;
  Alcotest.(check bool) "the store holds what Session.commit reaches" true
    (Relational.Database.equal expected.Penguin.Workspace.db
       (reopen dir).Penguin.Workspace.db);
  rm_rf dir

(* --- pipelined frames behind a flushed commit ----------------------------- *)

(* With a zero flush interval the age trigger flushes the window at the
   loop head, unparking a connection whose client pipelined a frame
   behind its commit. That frame is already buffered server-side, so the
   loop must read it before it waits on the socket again: all four
   answers arrive, without any further input from the client. *)
let test_pipelined_after_age_flush () =
  let dir = temp_dir "server-pipelined" in
  make_bench_store dir 1;
  let config = { S.default_config with flush_interval_ns = 0. } in
  let (), _stats =
    with_server ~config dir (fun sock ->
        let fd = raw_connect sock in
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
        let queue =
          Relational.Sexp.(
            to_string
              (List
                 [ Atom "queue"; Atom "omega";
                   Atom (grade_stmt ~course:1 ~grade:"A+") ]))
        in
        write_raw fd
          (String.concat ""
             (List.map Penguin.Journal.frame
                [ "(begin)"; queue; "(commit)"; "(begin)" ]));
        let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
        let rec answers () =
          let frames, _, _ = Penguin.Journal.decode_frames (Buffer.contents buf) in
          if List.length frames >= 4 then List.map snd frames
          else
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> List.map snd frames
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                answers ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                List.map snd frames
        in
        let got = answers () in
        Unix.close fd;
        Alcotest.(check int) "every pipelined frame answered within 5 s" 4
          (List.length got);
        Alcotest.(check bool) "the frame behind the commit is a fresh begin"
          true
          (Relational.Strutil.contains ~sub:"(ok (begun" (List.nth got 3)))
  in
  rm_rf dir

(* --- stats surface ------------------------------------------------------ *)

let test_stats_surface () =
  let dir = temp_dir "server-stats" in
  make_bench_store dir 1;
  let (), _stats =
    with_server dir (fun sock ->
        let c = connect sock in
        let _ = commit_grade c ~course:1 ~grade:"A-" in
        let json = check_ok_e (C.stats c) in
        List.iter
          (fun sub ->
            Alcotest.(check bool) (sub ^ " exported") true
              (Relational.Strutil.contains ~sub json))
          [ "\"server.requests\""; "\"server.commits\""; "\"server.windows\"";
            "\"server.commit_ns\""; "\"p99_ns\"" ];
        C.close c)
  in
  rm_rf dir

(* --- the leader's commit-log retention floor ------------------------------ *)

(* A figure from the [(stats)] JSON: [section] is "counters" or
   "gauges". *)
let stat c section name =
  let json = check_ok (Obs.Json.parse (check_ok_e (C.stats c))) in
  match Option.bind (Obs.Json.member section json) (Obs.Json.member name) with
  | Some v -> int_of_float (Option.get (Obs.Json.to_float v))
  | None -> Alcotest.failf "%s.%s missing from stats" section name

(* An idle [(begin)] pins the history since its base: while a second
   connection commits window after window, the leader keeps exactly the
   entries above it. When the idle session commits, it finds that
   history whole — clean, no rebase — and the log drops back to
   nothing held. *)
let test_idle_session_pins_history () =
  let dir = temp_dir "server-retention" in
  make_bench_store dir 2;
  let windows = 5 in
  let (), _stats =
    with_server dir (fun sock ->
        let idle = connect sock and busy = connect sock in
        let held () = stat busy "gauges" "server.commit_log_entries" in
        let v0 = check_ok_e (C.begin_ idle) in
        for i = 1 to windows do
          ignore (commit_grade busy ~course:2 ~grade:(Fmt.str "G%d" i));
          Alcotest.(check int)
            (Fmt.str "window %d: history since the idle base held" i)
            i (held ())
        done;
        let rebases = stat busy "counters" "session.rebases" in
        let n =
          check_ok_e
            (C.queue idle ~object_name:"omega"
               (grade_stmt ~course:1 ~grade:"A+"))
        in
        Alcotest.(check int) "one staged update" 1 n;
        Alcotest.(check (list int)) "the idle session commits on top"
          [ v0 + windows + 1 ] (check_ok_e (C.commit idle));
        Alcotest.(check int) "clean: no rebase" rebases
          (stat busy "counters" "session.rebases");
        Alcotest.(check int) "no session open: nothing held" 0 (held ());
        C.close idle;
        C.close busy)
  in
  rm_rf dir

(* A rotation is over when its window acks: the window whose grade is
   as long as the snapshot brings the journal to the snapshot's size,
   and by its ack the store file is the snapshot at its version and the
   journal one header there. [(stats)] shows the one rotation, timed
   whole and counted. *)
let test_stats_rotation_done_at_ack () =
  let dir = temp_dir "server-rotation-stats" in
  make_bench_store dir 300;
  let store = store_in dir in
  let jpath = Penguin.Journal.journal_path store in
  let snapshot_bytes = String.length (Test_recovery.read_raw store) in
  let acked, _stats =
    with_server dir (fun sock ->
        let c = connect sock in
        let rotations () =
          let json = check_ok (Obs.Json.parse (check_ok_e (C.stats c))) in
          match
            Option.bind (Obs.Json.member "histograms" json)
              (Obs.Json.member "recovery.snapshot_install_ns")
            |> Fun.flip Option.bind (Obs.Json.member "count")
          with
          | Some v -> int_of_float (Option.get (Obs.Json.to_float v))
          | None -> Alcotest.fail "recovery.snapshot_install_ns missing from stats"
        in
        let counted = stat c "counters" "journal.rotations" in
        let rotated = rotations () in
        for i = 1 to 3 do
          ignore (commit_grade c ~course:i ~grade:(Fmt.str "G%d" i))
        done;
        Alcotest.(check int) "small windows do not rotate" rotated (rotations ());
        let v =
          match commit_grade c ~course:4 ~grade:(String.make snapshot_bytes 'G') with
          | [ v ] -> v
          | vs -> Alcotest.failf "%d versions for one commit" (List.length vs)
        in
        let doc = Test_recovery.read_raw store in
        Alcotest.(check int) "the store file is the snapshot at the acked version" v
          (Penguin.Workspace.version (check_ok (Penguin.Store.load doc)));
        (match check_ok_e (Penguin.Journal.replay (Penguin.Journal.create jpath)) with
        | Some r ->
            Alcotest.(check int) "the journal is based there" v r.Penguin.Journal.base;
            Alcotest.(check int) "and holds only its header" 0 r.Penguin.Journal.records
        | None -> Alcotest.fail "the journal is gone");
        Alcotest.(check int) "one rotation, timed" 1 (rotations () - rotated);
        Alcotest.(check int) "and counted" 1 (stat c "counters" "journal.rotations" - counted);
        C.close c;
        v)
  in
  let _, report = Test_recovery.recover dir in
  Alcotest.(check int) "the store reopens at the acked version" acked
    report.Penguin.Recovery.version;
  Alcotest.(check int) "from the new snapshot, replaying nothing" 0
    report.Penguin.Recovery.replayed;
  rm_rf dir

(* --- event-loop hardening under signals -------------------------------- *)

let test_signals_mid_window () =
  let dir = temp_dir "server-signals" in
  make_bench_store dir 2;
  (* A no-op handler makes SIGUSR1 deliverable: the serving loop's
     blocking select/accept/read now see EINTR mid-window and must
     retry, not surface an I/O error or kill the accept loop. *)
  let prev = Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> ())) in
  let pid = Unix.getpid () in
  let storm_on = Atomic.make true in
  let storm =
    Domain.spawn (fun () ->
        while Atomic.get storm_on do
          Unix.kill pid Sys.sigusr1;
          Unix.sleepf 0.0005
        done)
  in
  let finally () =
    Atomic.set storm_on false;
    Domain.join storm;
    Sys.set_signal Sys.sigusr1 prev
  in
  let (), stats =
    Fun.protect ~finally (fun () ->
        with_server dir (fun sock ->
            let c = connect sock in
            for i = 1 to 20 do
              let versions =
                commit_grade c ~course:((i mod 2) + 1)
                  ~grade:(Fmt.str "G%02d" i)
              in
              Alcotest.(check int) "one version per commit" 1
                (List.length versions)
            done;
            C.close c))
  in
  Alcotest.(check int) "every commit acked through the signal storm" 20
    stats.S.commits;
  (* And every one of them is durable. *)
  let ws, _ = check_ok_e (Penguin.Recovery.open_store (store_in dir)) in
  Alcotest.(check bool) "signal-storm commits are durable" true
    (Penguin.Workspace.version ws >= 20);
  rm_rf dir

let suite =
  [
    Alcotest.test_case "roundtrip: ping, commit, read, durable reopen" `Quick
      test_roundtrip;
    Alcotest.test_case "breaker: degraded mode serves reads, refuses writes"
      `Quick test_breaker_degraded_reads;
    Alcotest.test_case "fsync: a transient fault on a window's fsync acks"
      `Quick test_transient_fsync_fault;
    Alcotest.test_case "breaker: a half-open probe commit re-closes it"
      `Quick test_breaker_recloses;
    Alcotest.test_case "replication: a failed window never reaches a follower"
      `Quick test_follower_skips_failed_window;
    Alcotest.test_case "wire: corrupt frame answered in-band" `Quick
      test_corrupt_frame_answered_in_band;
    Alcotest.test_case "wire: oversized frame answered in-band" `Quick
      test_oversized_frame_answered_in_band;
    Alcotest.test_case "wire: malformed and torn requests" `Quick
      test_malformed_and_torn_requests;
    Alcotest.test_case "stats: server.* counters and histograms exported"
      `Quick test_stats_surface;
    Alcotest.test_case "stats: a rotation is on disk by its window's ack"
      `Quick test_stats_rotation_done_at_ack;
    Alcotest.test_case "signals: EINTR mid-window never drops a commit"
      `Quick test_signals_mid_window;
    Alcotest.test_case "wire: frames pipelined behind an age-flushed commit"
      `Quick test_pipelined_after_age_flush;
    Alcotest.test_case "retention: an idle session pins the leader's history"
      `Quick test_idle_session_pins_history;
    Alcotest.test_case "window: a self-colliding statement is invalid, not retryable"
      `Quick test_self_colliding_statement_is_invalid;
    Alcotest.test_case "window: a statement over 200 instances commits whole"
      `Quick test_wide_statement_commits_whole;
  ]
