(* Quorum-acknowledged commits and network-partition chaos.

   Push-mode shipping over a live subscription (with the pull feed as
   catch-up when faults tear the stream), the server's replication
   tracker gating client acks on follower positions, its degrade/fail
   lag policies and evict/readmit health tracking — then the chaos
   sweep: a quorum-acked workload whose leader is killed at every
   journal byte and whose links sever at every frame boundary, with an
   accounting oracle proving every quorum-acked commit survives
   failover to the most-advanced follower and the deposed leader's
   unreplicated tail stays fenced — zero lost, zero duplicated. Set
   PENGUIN_CHAOS_SWEEP=full (the @chaos-suite alias does) for the
   100-commit workload. *)
open Relational
open Test_util

module R = Penguin.Replica
module J = Penguin.Journal
module S = Penguin.Server
module C = Penguin.Client
module N = Penguin.Netio
module E = Penguin.Error

let full_sweep = Sys.getenv_opt "PENGUIN_CHAOS_SWEEP" = Some "full"

(* PENGUIN_CHAOS_SEED rotates every fault-injection seed in the suite —
   CI runs the sweep under a small fixed matrix of values so a fault
   schedule that happens to dodge a bug on one seed is caught by
   another. Every derived seed stays deterministic for a given value. *)
let chaos_seed =
  match Sys.getenv_opt "PENGUIN_CHAOS_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 0)
  | None -> 0

let seed base = base + (17 * chaos_seed)
let store_in = Test_recovery.store_in
let target_in dir = Filename.concat dir "follower.pgn"

let db_equal msg a b =
  Alcotest.(check bool)
    msg true
    (Database.equal a.Penguin.Workspace.db b.Penguin.Workspace.db)

let read_file path =
  match check_ok_e (Penguin.Fsio.default.Penguin.Fsio.read path) with
  | Some c -> c
  | None -> Alcotest.failf "missing file: %s" path

(* Materialize a follower's files from a snapshot plus the first [upto]
   bytes of the leader's journal — the state a follower durably holds
   after acking through that offset. *)
let materialize ~sbytes ~jbytes store upto =
  let io = Penguin.Fsio.default in
  check_ok_e (Penguin.Fsio.atomic_write io ~path:store sbytes);
  if upto > 0 then
    check_ok_e
      (io.Penguin.Fsio.write ~path:(J.journal_path store) ~append:false
         (String.sub jbytes 0 upto))

(* Drive a push subscription until at least one record crosses — the
   single-threaded stand-in for a follower's event loop. *)
let drive_push ?(rounds = 2000) r p =
  let rec go n =
    if n > rounds then Alcotest.fail "push never delivered a record"
    else
      let prog = check_ok_e (R.push_poll ~timeout:0.02 r p) in
      if prog.R.records = 0 then go (n + 1)
  in
  go 0

(* --- push-mode shipping over a live server ----------------------------- *)

let test_push_stream_live () =
  let dir = temp_dir "quorum-push" in
  Test_recovery.make_store dir;
  List.iter (Test_replica.commit dir) [ "A-"; "B-" ];
  Test_replica.with_server dir (fun sock ->
      let r =
        check_ok_e
          (R.create
             ~feed:(Penguin.Shipper.feed ~sock)
             ~target:(target_in dir) ())
      in
      let _ = check_ok_e (R.poll_until_idle r) in
      let p = check_ok_e (R.subscribe r ~sock) in
      Alcotest.(check bool) "subscription is live" true (R.push_alive p);
      (* A commit lands after the subscription: the stream, not a poll
         tick, carries it. *)
      Test_replica.serve_commit sock "C+";
      drive_push r p;
      let lws, _ = Test_recovery.recover dir in
      Alcotest.(check int) "pushed to the leader's version"
        (Penguin.Workspace.version lws)
        (R.position r);
      db_equal "pushed state equals the leader" lws (R.workspace r);
      R.push_close p;
      Alcotest.(check bool) "closed subscription reports dead" false
        (R.push_alive p);
      (* A closed stream refuses with a transient error — the driver's
         signal to fall back to the pull path. *)
      let err = check_err_e (R.push_poll r p) in
      Alcotest.(check bool) "closed stream error is transient" true
        (E.retryable err));
  rm_rf dir

let test_push_faults_fall_back () =
  let dir = temp_dir "quorum-faults" in
  Test_recovery.make_store dir;
  List.iter (Test_replica.commit dir) [ "A-"; "B-" ];
  Test_replica.with_server dir (fun sock ->
      let r =
        check_ok_e
          (R.create
             ~feed:(Penguin.Shipper.feed ~sock)
             ~target:(target_in dir) ())
      in
      let _ = check_ok_e (R.poll_until_idle r) in
      (* A severed link: the subscription fails with a transient error
         and the stateless pull path still converges. *)
      let severed = Test_net.inject ~seed:(seed 3) ~rate:1.0 ~kind:Test_net.Sever N.default_net in
      let err = check_err_e (R.subscribe ~net:severed r ~sock) in
      Alcotest.(check bool) "sever is transient" true (E.retryable err);
      Test_replica.serve_commit sock "B+";
      let _ = check_ok_e (R.poll_until_idle r) in
      let lws, _ = Test_recovery.recover dir in
      db_equal "pull converges past the severed link" lws (R.workspace r);
      (* A duplicating link redelivers the handshake chunk into the
         record stream: contiguity breaks, the stream closes typed
         transient, and the pull path re-finds footing. *)
      let dup =
        Test_net.inject ~seed:(seed 7) ~rate:1.0 ~kind:Test_net.Duplicate
          ~dirs:[ `Recv ] N.default_net
      in
      let p = check_ok_e (R.subscribe ~net:dup r ~sock) in
      Test_replica.serve_commit sock "A";
      let rec poke n =
        if n > 2000 then Alcotest.fail "duplicated stream never failed"
        else
          match R.push_poll ~timeout:0.02 r p with
          | Ok _ -> poke (n + 1)
          | Error e -> e
      in
      let err = poke 0 in
      Alcotest.(check bool) "duplicate-corrupted stream is transient" true
        (E.retryable err);
      Alcotest.(check bool) "failed stream is closed" false (R.push_alive p);
      let _ = check_ok_e (R.poll_until_idle r) in
      let lws, _ = Test_recovery.recover dir in
      db_equal "pull converges past the duplicated stream" lws (R.workspace r);
      (* The resilient driver under a flaky (eventually severed) link:
         stream, fall back, resubscribe with seeded backoff — and stop
         at the leader's version. *)
      Test_replica.serve_commit sock "A+";
      let lws, _ = Test_recovery.recover dir in
      let target_v = Penguin.Workspace.version lws in
      let flaky =
        Test_net.inject ~seed:(seed 11) ~rate:0.2 ~kind:Test_net.Truncate N.default_net
      in
      let fast =
        {
          Penguin.Resilience.Policy.default with
          Penguin.Resilience.Policy.base_delay_ns = 1e6;
          max_delay_ns = 4e6;
        }
      in
      let total =
        check_ok_e
          (R.follow_push ~net:flaky ~policy:fast ~poll_timeout:0.01
             ~should_stop:(fun t -> R.position t >= target_v)
             r ~sock)
      in
      Alcotest.(check bool) "driver made non-negative progress" true
        (total >= 0);
      Alcotest.(check int) "driver converged to the leader" target_v
        (R.position r);
      db_equal "driver state equals the leader" lws (R.workspace r));
  rm_rf dir

(* --- quorum-gated client acks ------------------------------------------ *)

let quorum_config ?(deadline = 5e9) ?(on_lag = S.Degrade) k =
  { S.default_config with S.sync_replicas = k; repl_deadline_ns = deadline;
    on_lag }

(* One pipelined commit: park it on the server, run [between] (which
   drives the follower so the quorum can form), then collect the ack. *)
let pipelined_commit c ~course ~grade ~between =
  let _v = check_ok_e (C.begin_ c) in
  let n =
    check_ok_e
      (C.queue c ~object_name:"omega" (Test_server.grade_stmt ~course ~grade))
  in
  Alcotest.(check int) "one staged update" 1 n;
  check_ok_e (C.send_commit c);
  between ();
  check_ok_e (C.recv_commit_ack c)

let test_server_quorum_ack () =
  let dir = temp_dir "quorum-ack" in
  Test_server.make_bench_store dir 2;
  let (), stats =
    Test_server.with_server ~config:(quorum_config 1) dir (fun sock ->
        let r =
          check_ok_e
            (R.create
               ~feed:(Penguin.Shipper.feed ~sock)
               ~target:(target_in dir) ())
        in
        let _ = check_ok_e (R.poll_until_idle r) in
        let p = check_ok_e (R.subscribe r ~sock) in
        let c = Test_server.connect sock in
        let before = R.position r in
        let ack =
          pipelined_commit c ~course:1 ~grade:"A+" ~between:(fun () ->
              drive_push r p)
        in
        Alcotest.(check int) "one committed version" 1
          (List.length ack.C.versions);
        Alcotest.(check bool) "quorum ack carries no warning" false
          ack.C.under_replicated;
        (* The quorum invariant: at the moment the client holds the ack,
           the follower already holds the commit durably. *)
        Alcotest.(check int) "follower ahead of the ack" (before + 1)
          (R.position r);
        R.push_close p;
        C.close c)
  in
  Alcotest.(check int) "one quorum commit acked" 1 stats.S.commits;
  rm_rf dir

let test_on_lag_degrade () =
  let dir = temp_dir "quorum-degrade" in
  Test_server.make_bench_store dir 1;
  let v1, stats =
    Test_server.with_server
      ~config:(quorum_config ~deadline:60e6 ~on_lag:S.Degrade 1) dir
      (fun sock ->
        (* The only follower subscribes, then the partition: its link
           drops and no ack can ever arrive. *)
        let r =
          check_ok_e
            (R.create
               ~feed:(Penguin.Shipper.feed ~sock)
               ~target:(target_in dir) ())
        in
        let _ = check_ok_e (R.poll_until_idle r) in
        let p = check_ok_e (R.subscribe r ~sock) in
        R.push_close p;
        let c = Test_server.connect sock in
        let v0 = check_ok_e (C.begin_ c) in
        let _ =
          check_ok_e
            (C.queue c ~object_name:"omega"
               (Test_server.grade_stmt ~course:1 ~grade:"B+"))
        in
        check_ok_e (C.send_commit c);
        let ack = check_ok_e (C.recv_commit_ack c) in
        Alcotest.(check (list int)) "committed despite the partition"
          [ v0 + 1 ] ack.C.versions;
        Alcotest.(check bool) "ack degraded to under_replicated" true
          ack.C.under_replicated;
        C.close c;
        v0 + 1)
  in
  Alcotest.(check int) "degraded commit still counts" 1 stats.S.commits;
  (* Degraded means durable here: a fresh open replays the commit. *)
  let ws, _ = check_ok_e (Penguin.Recovery.open_store (store_in dir)) in
  Alcotest.(check int) "degraded commit is durable locally" v1
    (Penguin.Workspace.version ws);
  rm_rf dir

let test_on_lag_fail () =
  let dir = temp_dir "quorum-fail" in
  Test_server.make_bench_store dir 1;
  let v1, stats =
    Test_server.with_server
      ~config:(quorum_config ~deadline:60e6 ~on_lag:S.Fail 1) dir
      (fun sock ->
        let c = Test_server.connect sock in
        let v0 = check_ok_e (C.begin_ c) in
        let _ =
          check_ok_e
            (C.queue c ~object_name:"omega"
               (Test_server.grade_stmt ~course:1 ~grade:"C-"))
        in
        (* No follower at all: the quorum can never form and the window
           sheds with the typed deadline error. *)
        let err = check_err_e (C.commit c) in
        Alcotest.(check string) "typed deadline error" "deadline" (E.kind err);
        Alcotest.(check bool) "deadline shed is not retryable" false
          (E.retryable err);
        C.close c;
        v0 + 1)
  in
  Alcotest.(check int) "shed commit is not acked" 0 stats.S.commits;
  (* The error reports unmet replication, not lost data: the commit IS
     durable on the leader. *)
  let ws, _ = check_ok_e (Penguin.Recovery.open_store (store_in dir)) in
  Alcotest.(check int) "shed commit is durable locally" v1
    (Penguin.Workspace.version ws);
  rm_rf dir

let test_evict_and_readmit () =
  let dir = temp_dir "quorum-evict" in
  Test_server.make_bench_store dir 2;
  let (), _ =
    Test_server.with_server
      ~config:(quorum_config ~deadline:100e6 ~on_lag:S.Degrade 1) dir
      (fun sock ->
        let r =
          check_ok_e
            (R.create
               ~feed:(Penguin.Shipper.feed ~sock)
               ~target:(target_in dir) ())
        in
        let _ = check_ok_e (R.poll_until_idle r) in
        let p = check_ok_e (R.subscribe r ~sock) in
        let c = Test_server.connect sock in
        (* The follower stalls (we simply don't drive it): the window
           times out, acks under-replicated, and evicts the laggard. *)
        let ack =
          pipelined_commit c ~course:1 ~grade:"B-" ~between:(fun () -> ())
        in
        Alcotest.(check bool) "stalled follower degrades the ack" true
          ack.C.under_replicated;
        (* The follower wakes and catches up: its ack reaches the
           journal end, so the tracker re-admits it... *)
        drive_push r p;
        (* ...and the next window's quorum forms through it again. *)
        let ack =
          pipelined_commit c ~course:2 ~grade:"A-" ~between:(fun () ->
              drive_push r p)
        in
        Alcotest.(check bool) "re-admitted follower restores clean acks"
          false ack.C.under_replicated;
        R.push_close p;
        C.close c)
  in
  rm_rf dir

(* --- quorum positions across journal rotations ---------------------------- *)

let counter name = Obs.Metrics.Counter.value (Obs.Metrics.counter name)

(* Whether the leader's next window rotates its journal, when its record
   is as long as the last one: the records past the header then reach
   the snapshot's size. The windows' grades have one width, so past the
   first few (a course's first grade replaces a shorter one, and
   versions gain a digit at v10), every record has one length. *)
let next_window_rotates dir =
  let journal = read_file (J.journal_path (store_in dir)) in
  match J.decode_frames journal with
  | (_, header) :: (_ :: _ as records), _, _ ->
      let last = String.length (J.frame (snd (List.hd (List.rev records)))) in
      String.length journal - String.length (J.frame header) + last
      >= String.length (read_file (store_in dir))
  | _ -> false

(* Every window must wait for its quorum, the one whose append rotates
   the journal included: with no follower at all, each commit sheds
   with the typed deadline error, past the rotation too. *)
let test_rotating_window_waits () =
  Obs.Metrics.enable ();
  let dir = temp_dir "quorum-rotating-window" in
  Test_server.make_bench_store dir 2;
  let rotations = counter "journal.rotations" in
  let (), stats =
    Test_server.with_server
      ~config:(quorum_config ~deadline:2e6 ~on_lag:S.Fail 1) dir
      (fun sock ->
        let c = Test_server.connect sock in
        for i = 1 to 70 do
          let _v = check_ok_e (C.begin_ c) in
          let _ =
            check_ok_e
              (C.queue c ~object_name:"omega"
                 (Test_server.grade_stmt ~course:(1 + (i mod 2))
                    ~grade:(Fmt.str "g%d" i)))
          in
          match C.commit c with
          | Ok versions ->
              Alcotest.failf "commit %d acked %s with no follower" i
                (String.concat "," (List.map string_of_int versions))
          | Error e ->
              Alcotest.(check string) (Fmt.str "commit %d sheds typed" i)
                "deadline" (E.kind e)
        done;
        C.close c)
  in
  Alcotest.(check int) "no commit acked" 0 stats.S.commits;
  Alcotest.(check bool) "the commits crossed a rotation" true
    (counter "journal.rotations" > rotations);
  rm_rf dir

(* A push follower keeps one subscription across leader rotations: it
   takes each rotation's header frame off the stream and folds its own
   journal in place — no resync, no pull fallback, no under-replicated
   ack. A single-grade record is a few hundred bytes, enough for a
   rotation of the small store every few dozen commits. *)
let test_push_stream_crosses_rotations () =
  Obs.Metrics.enable ();
  let dir = temp_dir "quorum-cross-rotations" in
  Test_server.make_bench_store dir 4;
  let names =
    [ "replica.rotations_followed"; "replica.resyncs"; "shipper.push.fallbacks";
      "shipper.push.subscriptions"; "server.replication.under_replicated" ]
  in
  let before = List.map counter names in
  let (), stats =
    Test_server.with_server ~config:(quorum_config 1) dir (fun sock ->
        let r =
          check_ok_e
            (R.create ~feed:(Penguin.Shipper.feed ~sock)
               ~target:(target_in dir) ())
        in
        let _ = check_ok_e (R.poll_until_idle r) in
        let stop = Atomic.make false in
        let follower =
          Domain.spawn (fun () ->
              R.follow_push ~poll_timeout:0.01
                ~should_stop:(fun _ -> Atomic.get stop)
                r ~sock)
        in
        let c = Test_server.connect sock in
        for i = 1 to 200 do
          let _v = check_ok_e (C.begin_ c) in
          let _ =
            check_ok_e
              (C.queue c ~object_name:"omega"
                 (Test_server.grade_stmt ~course:(1 + (i mod 4))
                    ~grade:(Fmt.str "g%d" i)))
          in
          check_ok_e (C.send_commit c);
          let ack = check_ok_e (C.recv_commit_ack c) in
          if ack.C.under_replicated then
            Alcotest.failf "commit %d acked under-replicated" i
        done;
        C.close c;
        Atomic.set stop true;
        let _ = check_ok_e (Domain.join follower) in
        let lws, _ = Test_recovery.recover dir in
        Alcotest.(check int) "the follower holds every commit"
          (Penguin.Workspace.version lws) (R.position r);
        db_equal "the follower equals the leader" lws (R.workspace r);
        Alcotest.(check bool) "the follower's commit log folds with its journal"
          true
          (Penguin.Commit_log.length (R.workspace r).Penguin.Workspace.log
          <= 64))
  in
  Alcotest.(check int) "every commit acked" 200 stats.S.commits;
  match List.map2 (fun n b -> counter n - b) names before with
  | [ followed; resyncs; fallbacks; subscriptions; under ] ->
      Alcotest.(check bool)
        (Fmt.str "at least 3 rotations followed in place (%d)" followed)
        true (followed >= 3);
      Alcotest.(check int) "no resync" 0 resyncs;
      Alcotest.(check int) "no pull fallback" 0 fallbacks;
      Alcotest.(check int) "one subscription throughout" 1 subscriptions;
      Alcotest.(check int) "no under-replicated ack" 0 under;
      rm_rf dir
  | _ -> assert false

(* A journal rotated by an older leader holds the records above its new
   base: such a leader rendered its snapshot while later windows
   appended, and the compacted journal re-presented those records after
   its header. Leaders no longer write that layout, but stores that hold
   it still open, and a push follower still passes over the records it
   holds there. The layout is built by hand: after three commits
   (records B+1..B+3 over a header at B) the store becomes a snapshot at
   B+1 under a header at B+1 and the last two records. A listener on
   the real {!Penguin.Shipper} streams it to a caught-up follower, then
   one more commit. *)
let test_push_passes_over_held_records () =
  Obs.Metrics.enable ();
  let dir = temp_dir "quorum-held-records" in
  Test_recovery.make_store dir;
  List.iter (Test_replica.commit dir) [ "A-"; "B-"; "C+" ];
  let store = store_in dir in
  let jpath = J.journal_path store in
  let version () =
    Penguin.Workspace.version (fst (check_ok_e (Penguin.Recovery.open_store store)))
  in
  let v = version () in
  let r = Test_replica.follower dir in
  let _ = Test_replica.catch_up r in
  Alcotest.(check int) "the follower holds every commit" v (R.position r);
  let sock = Filename.concat dir "feed.sock" in
  let srv = check_ok_e (N.listen ~sock) in
  let feed = R.file_feed store in
  let listener =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept srv in
        let buf = Bytes.create 4096 in
        let rec request got =
          match J.decode_frames got with
          | (_, payload) :: _, _, _ -> payload
          | [], _, _ -> request (got ^ Bytes.sub_string buf 0 (N.read_some fd buf))
        in
        match Penguin.Shipper.accept ~net:N.default_net feed fd (request "") with
        | `Subscribed sub -> fd, sub
        | _ -> Alcotest.fail "the subscription was refused")
  in
  let p = check_ok_e (R.subscribe r ~sock) in
  let fd, sub = Domain.join listener in
  let entries =
    match J.decode_frames (read_file jpath) with
    | _header :: records, _, _ ->
        List.map (fun (_, payload) -> payload, check_ok (J.record_of_payload payload)) records
    | [], _, _ -> Alcotest.fail "the journal has no header"
  in
  (match entries with
  | [ (_, first); (second, _); (third, _) ] ->
      let ws0 = check_ok (Penguin.Store.load (read_file store)) in
      let ws1 =
        List.fold_left
          (fun ws e -> check_ok_e (Penguin.Recovery.apply_entry ws e))
          ws0 first
      in
      let base = Penguin.Workspace.version ws1 in
      check_ok_e
        (Penguin.Fsio.atomic_write Penguin.Fsio.default ~path:store
           (Penguin.Store.save ws1));
      check_ok_e
        (Penguin.Fsio.atomic_write Penguin.Fsio.default ~path:jpath
           (String.concat ""
              (List.map J.frame [ J.header_payload ~base ~epoch:0; second; third ])))
  | _ -> Alcotest.fail "three commits, three records");
  Alcotest.(check int) "the store opens at the same version" v (version ());
  let followed = counter "replica.rotations_followed"
  and resyncs = counter "replica.resyncs" in
  Alcotest.(check bool) "the new journal is streamed" true
    (Penguin.Shipper.relay ~net:N.default_net feed sub);
  Test_replica.commit dir "D";
  Alcotest.(check bool) "and the next record" true
    (Penguin.Shipper.relay ~net:N.default_net feed sub);
  drive_push r p;
  Alcotest.(check int) "the follower takes the next record" (v + 1) (R.position r);
  Alcotest.(check int) "it followed the header in place" 1
    (counter "replica.rotations_followed" - followed);
  Alcotest.(check int) "no resync" 0 (counter "replica.resyncs" - resyncs);
  Alcotest.(check string) "it is following" "following" (R.status_label (R.status r));
  db_equal "the follower equals the leader"
    (fst (Test_recovery.recover dir)) (R.workspace r);
  R.push_close p;
  Unix.close fd;
  Unix.close srv;
  rm_rf dir

(* A subscription counts toward no quorum until its follower acks a
   version: the listener only knows the subscribed offset is a frame
   boundary, not which journal the follower's bytes came from. The
   hazard is a follower caught up at an old journal's header end that
   subscribes just after a rotation whose new header has the same
   length — the offset is a boundary of the new journal too. A raw
   subscriber stands in for it here, subscribing at the new journal's
   header end and never acking: the rotating window stays parked and
   sheds at its deadline. *)
let test_subscription_waits_for_ack () =
  let dir = temp_dir "quorum-subscribe-unacked" in
  Test_server.make_bench_store dir 4;
  let leader_header () =
    let bytes = read_file (J.journal_path (store_in dir)) in
    match (J.decode_frames bytes, R.header_of_bytes bytes) with
    | ((_, h) :: _, _, _), Some (base, _) -> (base, String.length (J.frame h))
    | _ -> Alcotest.fail "the leader journal has no header"
  in
  let followed, stats =
    Test_server.with_server
      ~config:(quorum_config ~deadline:1e9 ~on_lag:S.Fail 1)
      dir
      (fun sock ->
        let r =
          check_ok_e
            (R.create ~feed:(Penguin.Shipper.feed ~sock)
               ~target:(target_in dir) ())
        in
        let _ = check_ok_e (R.poll_until_idle r) in
        let p = check_ok_e (R.subscribe r ~sock) in
        let c = Test_server.connect sock in
        (* One window per commit, followed until the next one brings the
           server's fresh journal to its snapshot's size. *)
        let rec follow i =
          let ack =
            pipelined_commit c ~course:(1 + (i mod 4)) ~grade:(Fmt.str "g%03d" i)
              ~between:(fun () -> drive_push r p)
          in
          Alcotest.(check bool) (Fmt.str "commit %d is quorum-acked" i) false
            ack.C.under_replicated;
          if next_window_rotates dir then i else follow (i + 1)
        in
        let followed = follow 1 in
        R.push_close p;
        let base0, _ = leader_header () in
        let _v = check_ok_e (C.begin_ c) in
        let _ =
          check_ok_e
            (C.queue c ~object_name:"omega"
               (Test_server.grade_stmt ~course:(1 + ((followed + 1) mod 4))
                  ~grade:(Fmt.str "g%03d" (followed + 1))))
        in
        check_ok_e (C.send_commit c);
        let rec rotated n =
          match leader_header () with
          | base, hlen when base <> base0 -> (base, hlen)
          | _ when n > 2000 -> Alcotest.fail "the rotating window never rotated"
          | _ ->
              Unix.sleepf 0.001;
              rotated (n + 1)
        in
        let base, hlen = rotated 0 in
        let fd = check_ok_e (N.connect ~sock) in
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
        N.write_all fd (J.frame (R.request_payload (R.Subscribe hlen)));
        let buf = Bytes.create 4096 in
        let rec handshake got =
          match J.decode_frames got with
          | (_, reply) :: _, _, _ -> R.reply_of_payload reply
          | [], _, _ -> (
              match Unix.recv fd buf 0 (Bytes.length buf) [] with
              | 0 -> None
              | k -> handshake (got ^ Bytes.sub_string buf 0 k))
        in
        (match handshake "" with
        | Some (R.Pushing (b, _)) ->
            Alcotest.(check int) "subscribed under the new header" base b
        | _ -> Alcotest.fail "the subscription at the header end was refused");
        let err = check_err_e (C.recv_commit_ack c) in
        Alcotest.(check string) "the rotating window sheds at its deadline"
          "deadline" (E.kind err);
        Unix.close fd;
        C.close c;
        followed)
  in
  Alcotest.(check int) "only the followed commits acked" followed stats.S.commits;
  rm_rf dir

(* A follower link that hands over at most one frame per read, so one
   push poll takes a window's record without the rotation header queued
   behind it. *)
let one_frame_net () =
  let left = ref 0 in
  let net_recv fd buf =
    let want =
      if !left > 0 then !left
      else
        let head = Bytes.create 8 in
        if Unix.recv fd head 0 8 [ Unix.MSG_PEEK ] < 8 then 8
        else 8 + Int32.to_int (Bytes.get_int32_be head 0)
    in
    let k = Unix.recv fd buf 0 (min want (Bytes.length buf)) [] in
    left := want - k;
    k
  in
  { N.default_net with N.net_recv }

(* The leader dies right after the window whose append rotates its
   journal is quorum-acked, while the follower has acked that window's
   record but not yet taken the rotation's header barrier. Promoting the
   follower must keep every acked commit: the accounting oracle checks
   each course's last acked grade and the last acked version. *)
let test_kill_after_rotating_ack () =
  Obs.Metrics.enable ();
  let dir = temp_dir "quorum-kill-rotating" in
  Test_server.make_bench_store dir 4;
  let followed = counter "replica.rotations_followed" in
  let acked = Hashtbl.create 64 and last = ref 0 in
  let r, _ =
    Test_server.with_server ~config:(quorum_config 1) dir (fun sock ->
        let r =
          check_ok_e
            (R.create ~feed:(Penguin.Shipper.feed ~sock)
               ~target:(target_in dir) ())
        in
        let _ = check_ok_e (R.poll_until_idle r) in
        let p = check_ok_e (R.subscribe ~net:(one_frame_net ()) r ~sock) in
        let c = Test_server.connect sock in
        (* One window per commit, up to the one that brings the server's
           fresh journal to its snapshot's size. *)
        let rec commit i =
          let rotates = next_window_rotates dir in
          let course = 1 + (i mod 4) and grade = Fmt.str "g%03d" i in
          let ack =
            pipelined_commit c ~course ~grade ~between:(fun () ->
                let rec go n =
                  match R.push_poll ~timeout:0.02 r p with
                  | Ok prog when prog.R.records = 0 && n < 2000 -> go (n + 1)
                  | Ok _ | Error _ -> ()
                in
                go 0)
          in
          Hashtbl.replace acked course grade;
          last := List.fold_left max !last ack.C.versions;
          if not rotates then commit (i + 1)
        in
        commit 1;
        (* The leader is lost here: the header frame behind the last
           record is never read. *)
        R.push_close p;
        C.close c;
        r)
  in
  let leader =
    check_ok_e (J.replay (J.create (J.journal_path (store_in dir))))
  in
  Alcotest.(check (option int)) "the last acked window rotated the leader"
    (Some !last) (Option.map (fun l -> l.J.base) leader);
  Alcotest.(check int) "the follower never took the barrier" followed
    (counter "replica.rotations_followed");
  let ws, _ = check_ok_e (R.promote r) in
  Alcotest.(check int) "the promoted follower holds the last acked version"
    !last (Penguin.Workspace.version ws);
  Hashtbl.iter
    (fun course grade ->
      Alcotest.(check string)
        (Fmt.str "course %d keeps its last acked grade" course)
        grade
        (match
           Test_recovery.grade_of ws (Fmt.str "BENCH%03d" course, 2000 + course)
         with
        | Value.Str g -> g
        | v -> Value.to_string v))
    acked;
  rm_rf dir

(* --- the chaos sweep ---------------------------------------------------- *)

(* Leader killed at every journal byte of a quorum-acked workload. The
   accounting oracle: with sync_replicas = 1, the most-advanced
   follower at the kill holds exactly the acked prefix — every commit
   the client saw acked is at or before the follower's durable offset,
   so promoting it loses nothing and duplicates nothing, while the
   deposed leader's unreplicated tail can never resurface past the
   promotion's epoch fence. *)
let test_quorum_kill_sweep () =
  let n = if full_sweep then 100 else 12 in
  let dir = temp_dir "quorum-sweep-ref" in
  let states = Test_replica.build_workload dir n in
  let jbytes = read_file (J.journal_path (store_in dir)) in
  let sbytes = read_file (store_in dir) in
  rm_rf dir;
  let total = String.length jbytes in
  let frames, clean, torn = J.decode_frames jbytes in
  Alcotest.(check int) "workload journal is clean" 0 torn;
  Alcotest.(check int) "workload journal fully decodes" total clean;
  Alcotest.(check int) "one record per commit" (n + 1) (List.length frames);
  let ends =
    Array.of_list (List.map (fun (off, p) -> off + 8 + String.length p) frames)
  in
  let header_end = ends.(0) in
  let records_at b =
    let k = ref 0 in
    Array.iteri (fun i e -> if i > 0 && e <= b then incr k) ends;
    !k
  in
  let ver k = Penguin.Workspace.version states.(k) in
  (* Per-byte accounting: at every kill offset, the decoder run on that
     exact prefix reports precisely the ledger's acked commits, the
     clean prefix ends at the last acked frame, and the durable-position
     ordering picks the right failover candidate. *)
  for b = 0 to total do
    let fs, ce, _ = J.decode_frames (String.sub jbytes 0 b) in
    let k = records_at b in
    let expect_frames = k + if b >= header_end then 1 else 0 in
    if List.length fs <> expect_frames then
      Alcotest.failf "byte %d: decoded %d frames, the ledger says %d" b
        (List.length fs) expect_frames;
    let expect_clean = if b >= header_end then ends.(k) else 0 in
    if ce <> expect_clean then
      Alcotest.failf "byte %d: clean prefix %d, the ledger says %d" b ce
        expect_clean;
    let adv = { R.d_version = ver k; d_epoch = 0; d_offset = ends.(k) } in
    if k > 0 then begin
      let lag =
        { R.d_version = ver (k - 1); d_epoch = 0; d_offset = ends.(k - 1) }
      in
      if not (R.more_advanced adv lag) || R.more_advanced lag adv then
        Alcotest.failf "byte %d: durable ordering mis-ranks the candidates" b
    end;
    (* Epochs only move forward, so a promoted candidate outranks any
       higher byte count from the dead epoch. *)
    if not (R.more_advanced { adv with R.d_epoch = 1 } adv) then
      Alcotest.failf "byte %d: epoch must dominate the ordering" b
  done;
  (* The failover pipeline at every frame boundary: materialize the
     most-advanced follower (acked through k), a laggard (k-1), and the
     dead leader (k plus an unreplicated tail); prove the promotion
     refusal, the promotion itself, and the fence. *)
  for k = 0 to n do
    let ctx = Fmt.str "boundary %d/%d" k n in
    let k_lead = min n (k + 2) in
    let dead = temp_dir "quorum-sweep" in
    let mat name upto =
      let store = Filename.concat dead name in
      materialize ~sbytes ~jbytes store upto;
      store
    in
    let leader = mat "leader.pgn" ends.(k_lead) in
    let f_adv = mat "adv.pgn" ends.(k) in
    let f_lag = mat "lag.pgn" ends.(max 0 (k - 1)) in
    (* The on-disk durable positions match the ledger arithmetic. *)
    let d_adv = check_ok_e (R.durable_position f_adv) in
    Alcotest.(check int) (ctx ^ ": follower durable offset") ends.(k)
      d_adv.R.d_offset;
    Alcotest.(check int) (ctx ^ ": follower durable version") (ver k)
      d_adv.R.d_version;
    (* Promoting the laggard while a more-advanced peer exists would
       drop quorum-acked commits: the typed refusal names the peer. *)
    if k > 0 then begin
      let err = check_err_e (R.promote_store ~peers:[ f_adv ] f_lag) in
      Alcotest.(check string) (ctx ^ ": refusal is typed invalid") "invalid"
        (E.kind err);
      Alcotest.(check bool) (ctx ^ ": refusal names the advanced peer") true
        (Strutil.contains ~sub:"more advanced" (E.to_string err))
    end;
    (* The dead leader's pre-death handle — epoch 0, holding the
       unreplicated tail in memory. *)
    let lws, lreport = check_ok_e (Penguin.Recovery.open_store leader) in
    (* Failover: promote the most-advanced follower. Its state is
       exactly the quorum-acked ledger state — zero lost, zero
       duplicated, and none of the leader's unacked tail. *)
    let pws, epoch = check_ok_e (R.promote_store ~peers:[ f_lag ] f_adv) in
    Alcotest.(check int) (ctx ^ ": promotion bumps the epoch") 1 epoch;
    if
      not
        (Database.equal pws.Penguin.Workspace.db
           states.(k).Penguin.Workspace.db
        && Penguin.Workspace.version pws = ver k)
    then Alcotest.failf "%s: promoted state is not the acked prefix" ctx;
    (* The deposed leader's own files are taken over at the next epoch
       (failback); its pre-death handle is fenced before appending
       anything — the unreplicated tail cannot resurface. *)
    let _ = check_ok_e (R.promote_store leader) in
    let stale = Test_recovery.apply_edit lws ("CS345", 2) "F" in
    let err =
      check_err_e
        (Penguin.Recovery.persist ~store:leader
           ~since:(Penguin.Workspace.version lws)
           ~expect_epoch:lreport.Penguin.Recovery.epoch stale)
    in
    if not (Strutil.contains ~sub:"fenced" (E.to_string err)) then
      Alcotest.failf "%s: deposed leader was not fenced" ctx;
    rm_rf dead
  done

(* Link severed at every frame boundary of a live push stream: a
   follower already holding k commits subscribes at its own offset,
   streams at least one frame, loses the link, and converges through
   the pull path — nothing lost, nothing doubled, at every k. *)
let test_link_sever_sweep () =
  let n = if full_sweep then 100 else 12 in
  let dir = temp_dir "quorum-sever-ref" in
  let states = Test_replica.build_workload dir n in
  let jbytes = read_file (J.journal_path (store_in dir)) in
  let sbytes = read_file (store_in dir) in
  let frames, _, _ = J.decode_frames jbytes in
  let ends =
    Array.of_list (List.map (fun (off, p) -> off + 8 + String.length p) frames)
  in
  let final = states.(n) in
  Test_replica.with_server dir (fun sock ->
      (* The follower offsets below are the workload journal's frame
         ends: opening the server must leave that journal as it was. *)
      Alcotest.(check string) "serving keeps the workload journal" jbytes
        (read_file (J.journal_path (store_in dir)));
      for k = 0 to n do
        let ctx = Fmt.str "sever at boundary %d/%d" k n in
        let fdir = temp_dir "quorum-sever" in
        let target = Filename.concat fdir "follower.pgn" in
        materialize ~sbytes ~jbytes target ends.(k);
        let r =
          check_ok_e
            (R.create ~feed:(Penguin.Shipper.feed ~sock) ~target ())
        in
        Alcotest.(check int) (ctx ^ ": resumes at its own offset") ends.(k)
          (R.leader_offset r);
        let p = check_ok_e (R.subscribe r ~sock) in
        if k < n then drive_push r p;
        R.push_close p;
        let _ = check_ok_e (R.poll_until_idle r) in
        if R.position r <> Penguin.Workspace.version final then
          Alcotest.failf "%s: converged to v%d, leader at v%d" ctx
            (R.position r)
            (Penguin.Workspace.version final);
        db_equal (ctx ^ ": state equals the leader") final (R.workspace r);
        rm_rf fdir
      done);
  rm_rf dir

(* --- durable positions as such ----------------------------------------- *)

let test_durable_position () =
  let dir = temp_dir "quorum-durable" in
  Test_recovery.make_store dir;
  (* A bare snapshot: no journal yet, epoch 0, offset 0. *)
  let d0 = check_ok_e (R.durable_position (store_in dir)) in
  Alcotest.(check int) "bare snapshot epoch" 0 d0.R.d_epoch;
  Alcotest.(check int) "bare snapshot offset" 0 d0.R.d_offset;
  Test_replica.commit dir "A-";
  let d1 = check_ok_e (R.durable_position (store_in dir)) in
  Alcotest.(check int) "commit bumps the version" (d0.R.d_version + 1)
    d1.R.d_version;
  Alcotest.(check bool) "commit advances the offset" true
    (d1.R.d_offset > 0);
  Alcotest.(check bool) "the commit is more advanced" true
    (R.more_advanced d1 d0);
  Alcotest.(check bool) "ordering is strict" false (R.more_advanced d1 d1);
  (* A torn tail is not durable: the position reports the clean prefix
     without repairing the file. *)
  let jpath = J.journal_path (store_in dir) in
  check_ok_e
    (Penguin.Fsio.default.Penguin.Fsio.write ~path:jpath ~append:true "torn");
  let d2 = check_ok_e (R.durable_position (store_in dir)) in
  Alcotest.(check int) "torn tail is not durable" d1.R.d_offset d2.R.d_offset;
  Alcotest.(check bool) "position probe does not repair the file" true
    (Strutil.contains ~sub:"torn" (read_file jpath));
  (* Equal peers do not block promotion — only strictly more-advanced
     ones do. *)
  let twin_dir = temp_dir "quorum-durable-twin" in
  let twin = Filename.concat twin_dir "twin.pgn" in
  materialize
    ~sbytes:(read_file (store_in dir))
    ~jbytes:(read_file jpath) twin d1.R.d_offset;
  let _, epoch =
    check_ok_e (R.promote_store ~peers:[ twin ] (store_in dir))
  in
  Alcotest.(check int) "equal peer does not block promotion" 1 epoch;
  (* ...but now the promoted store outranks the twin by epoch alone,
     so the twin refuses. *)
  let err = check_err_e (R.promote_store ~peers:[ store_in dir ] twin) in
  Alcotest.(check bool) "promoted peer blocks the twin" true
    (Strutil.contains ~sub:"more advanced" (E.to_string err));
  rm_rf twin_dir;
  rm_rf dir

(* --- the refusal of a non-boundary subscribe ---------------------------- *)

(* A subscription at an offset that is not a frame boundary of the
   leader's journal is refused in-band with exactly one [(error ...)]
   frame, after which the server closes the connection. The follower
   sees a retryable "subscribe refused", and its pull path converges. *)
let test_subscribe_refusal_shape () =
  let dir = temp_dir "quorum-refusal" in
  Test_recovery.make_store dir;
  List.iter (Test_replica.commit dir) [ "A-"; "B-" ];
  let r =
    Test_replica.with_server dir (fun sock ->
        (* On the wire: offset 1 sits inside the header frame. The
           receive timeout turns a connection left open into a failure
           instead of a hang. *)
        let fd = check_ok_e (N.connect ~sock) in
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
        N.write_all fd (J.frame (R.request_payload (R.Subscribe 1)));
        let raw =
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              try N.read_all fd
              with Unix.Unix_error (Unix.EAGAIN, _, _) ->
                Alcotest.fail "connection left open after the refusal")
        in
        (match J.decode_frames raw with
        | [ (_, status) ], _, 0 -> (
            match R.reply_of_payload status with
            | Some (R.Refused _) -> ()
            | _ -> Alcotest.failf "expected (error ...), got %s" status)
        | frames, _, torn ->
            Alcotest.failf
              "expected one refusal frame, then close; got %d frame(s) and \
               %d torn byte(s)"
              (List.length frames) torn);
        let r =
          check_ok_e
            (R.create
               ~feed:(Penguin.Shipper.feed ~sock)
               ~target:(target_in dir) ())
        in
        let _ = check_ok_e (R.poll_until_idle r) in
        r)
  in
  (* The leader commits and rotates while the follower is away: its
     position is no longer a frame boundary of the leader journal. *)
  Test_replica.commit dir "C+";
  Test_replica.commit_rotating dir;
  Test_replica.with_server dir (fun sock ->
      let err = check_err_e (R.subscribe r ~sock) in
      Alcotest.(check bool)
        (Fmt.str "refusal is retryable: %s" (E.to_string err))
        true (E.retryable err);
      Alcotest.(check bool)
        (Fmt.str "refusal arrives in-band: %s" (E.to_string err))
        true
        (Strutil.contains ~sub:"subscribe refused" (E.to_string err));
      let _ = check_ok_e (R.poll_until_idle r) in
      let lws, _ = Test_recovery.recover dir in
      Alcotest.(check int) "pull converges to the leader"
        (Penguin.Workspace.version lws)
        (R.position r);
      db_equal "pulled state equals the leader" lws (R.workspace r));
  rm_rf dir

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  [
    t "push: live stream ships commits as they land" test_push_stream_live;
    t "push: faults tear the stream, pull converges" test_push_faults_fall_back;
    t "quorum: follower ack releases the client ack" test_server_quorum_ack;
    t "quorum: on-lag degrade warns and stays durable" test_on_lag_degrade;
    t "quorum: on-lag fail sheds typed, durable locally" test_on_lag_fail;
    t "quorum: laggard evicted, re-admitted on catch-up"
      test_evict_and_readmit;
    t "chaos: leader killed at every journal byte" test_quorum_kill_sweep;
    t "chaos: link severed at every frame boundary" test_link_sever_sweep;
    t "durable positions order failover candidates" test_durable_position;
    t "push: the server refuses a non-boundary subscribe in-band"
      test_subscribe_refusal_shape;
    t "quorum: the rotating window waits for its quorum"
      test_rotating_window_waits;
    t "quorum: a subscription counts only once its follower acks"
      test_subscription_waits_for_ack;
    t "push: one subscription crosses leader rotations"
      test_push_stream_crosses_rotations;
    t "push: a follower passes over held records after a header"
      test_push_passes_over_held_records;
    t "chaos: leader killed right after a rotating window's quorum ack"
      test_kill_after_rotating_ack;
  ]
