(* Faults that fail and continue, over the durable commit path.

   Where test_recovery kills the process at chosen I/O points, this
   suite makes I/O on the disk model (Test_disk) fail *and continue*:
   every faulted primitive returns a typed transient or hard Error.Io,
   a failed fsync drops its pages, and the resilience layer — retry
   with backoff, the circuit breaker, lock deadlines — must absorb it.
   The central property: a 100-commit workload under a 30% append and
   fsync fault rate completes with zero lost and zero duplicated
   commits, crash included, and never trips the breaker; a failed
   commit leaves no record behind; hard faults trip the breaker within
   the threshold, reads keep working, and a post-cooldown probe
   re-closes it. Every draw is seeded, so a failure reproduces
   exactly. *)
open Relational
open Test_util

module R = Penguin.Resilience
module E = Penguin.Error
module F = Penguin.Fsio
module A = Penguin.Recovery.Appender
module D = Test_disk
open Test_recovery

(* One durable commit the CLI's way — open, translate, persist — with
   the persist (the faulted leg) under the breaker, wrapped in the retry
   policy. *)
let commit_grade ~io ~breaker ~clock dir enrolment grade =
  let ( let* ) = Result.bind in
  let store = store_in dir in
  let* ws, _ = Penguin.Recovery.open_store ~io store in
  let ws' = apply_edit ws enrolment grade in
  let* _p =
    R.retry ~clock
      ~policy:{ R.Policy.default with max_attempts = 24; seed = 11 }
      ~label:"persist" (fun () ->
        R.Breaker.protect breaker @@ fun () ->
        Penguin.Recovery.persist ~io ~store
          ~since:(Penguin.Workspace.version ws) ws')
  in
  Ok ()

(* A store on an in-memory disk, in its directory ".". *)
let mem_store ?seed () =
  let d = D.mem ?seed () in
  make_store ~io:(D.io d) ".";
  d, D.io d

let reopen io = check_ok_e (Penguin.Recovery.open_store ~io (store_in "."))

(* --- the central property ---------------------------------------------- *)

(* 100 commits, each persisting through a disk whose writes and fsyncs
   fail 30% of the time: nothing may be lost, nothing may land twice,
   and the breaker must treat all of it as weather. A failed fsync
   drops its pages, so the record must be cut off and written again,
   never trusted to a second fsync; and a cut whose own writes fail
   must be finished by the retry. *)
let commits_survive_faults ~kind ~seed () =
  let d, io = mem_store ~seed () in
  let clock = R.Clock.instant () in
  let breaker = R.Breaker.create ~label:"fault-suite" ~threshold:3 () in
  let v0 = Penguin.Workspace.version (fst (reopen io)) in
  D.set_schedule d (D.Rate { rate = 0.3; kinds = [ kind ]; ops = [ `Write; `Sync ] });
  let grade i = if i mod 2 = 0 then "A" else "B" in
  for i = 1 to 100 do
    check_ok_e
      ~msg:(Fmt.str "commit %d" i)
      (commit_grade ~io ~breaker ~clock "." ("CS345", 2) (grade i))
  done;
  Alcotest.(check bool) "the fault rate was real (>=10 faults injected)" true
    (D.faults d >= 10);
  (* zero lost, zero duplicated: the committed history advanced by
     exactly one version per commit, and replays cleanly after a crash *)
  D.set_schedule d D.never;
  D.crash d;
  let ws, report = reopen io in
  check_ok ~msg:"recovered state is consistent"
    (Penguin.Workspace.check_consistency ws);
  Alcotest.(check int) "exactly 100 commits durable" (v0 + 100)
    (Penguin.Workspace.version ws);
  Alcotest.(check int) "replay agrees" (v0 + 100) report.Penguin.Recovery.version;
  Alcotest.(check bool) "last write wins" true
    (grade_of ws ("CS345", 2) = Value.Str (grade 100));
  (* transient weather never trips the breaker *)
  Alcotest.(check bool) "breaker stayed closed" true
    (R.Breaker.state breaker = R.Breaker.Closed)

let test_transient_faults () = commits_survive_faults ~kind:D.Transient ~seed:1 ()

(* Torn writes leave a checksum-invalid tail on disk; the retried
   persist must truncate it before re-appending. *)
let test_torn_faults () = commits_survive_faults ~kind:D.Torn ~seed:2 ()

(* A flipped byte lands fully on disk; the framing CRC catches it and
   the retry repairs, same as a torn tail. *)
let test_corrupt_faults () = commits_survive_faults ~kind:D.Corrupt ~seed:3 ()

(* --- a failed commit leaves nothing behind ------------------------------ *)

(* A persist whose journal fsync fails for good reports Io, and its
   record must not stay behind: neither a reopen nor a crash may show
   the store at a commit reported failed. *)
let test_failed_persist_keeps_nothing () =
  let d, io = mem_store () in
  check_ok_e (Test_recovery.commit_grade ~io "." ("EE280", 1) "C");
  let ws0, _ = reopen io in
  let v0 = Penguin.Workspace.version ws0 in
  let store = store_in "." in
  D.set_schedule d (D.Once [ `Sync, Penguin.Journal.journal_path store, D.Hard ]);
  (match
     Penguin.Recovery.persist ~io ~store ~since:v0 (apply_edit ws0 ("CS345", 2) "A-")
   with
  | Error (E.Io { op = E.Sync; transient = false; _ }) -> ()
  | Error e -> Alcotest.failf "expected a hard fsync Io, got %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "persist must fail under a hard fsync fault");
  let reopened ctx =
    let ws, _ = reopen io in
    Alcotest.(check int) (ctx ^ ": at the base version") v0 (Penguin.Workspace.version ws);
    Alcotest.(check bool) (ctx ^ ": without the failed commit") true
      (grade_of ws ("CS345", 2) <> Value.Str "A-")
  in
  reopened "a reopen";
  D.crash d;
  reopened "after a crash"

(* The cut-and-rewrite of a failed append goes through a rename that is
   durable only once its directory is. When that directory fsync fails
   too, the next write must not append to a journal a crash can take
   back: the record acked after the failure survives the crash. *)
let test_failed_dir_fsync_during_cut () =
  let d, io = mem_store () in
  let store = store_in "." in
  let ws0, _ = reopen io in
  let app = check_ok_e (A.create ~io ~store ws0) in
  D.set_schedule d
    (D.Once [ `Sync, Penguin.Journal.journal_path store, D.Hard; `Sync, ".", D.Hard ]);
  let v0 = Penguin.Workspace.version ws0 in
  (match A.write app ~since:v0 (apply_edit ws0 ("CS345", 2) "F") with
  | Error (E.Io _) -> ()
  | _ -> Alcotest.fail "the faulted window must fail");
  let ws1 = apply_edit ws0 ("EE280", 1) "C" in
  check_ok_e ~msg:"the next window acks" (A.write app ~since:v0 ws1);
  Alcotest.(check int) "both faults fired" 2 (D.faults d);
  D.crash d;
  let ws, _ = reopen io in
  Alcotest.(check int) "the store reopens at the acked version" (v0 + 1)
    (Penguin.Workspace.version ws);
  Alcotest.(check bool) "holding the acked window" true
    (grade_of ws ("EE280", 1) = Value.Str "C"
    && grade_of ws ("CS345", 2) <> Value.Str "F")

(* --- degraded read-only mode ------------------------------------------- *)

let test_hard_faults_trip_into_degraded_mode () =
  let d, io = mem_store () in
  let store = store_in "." in
  let clock = R.Clock.instant () in
  let breaker =
    R.Breaker.create ~label:"degrade" ~threshold:3 ~cooldown_ns:1e6 ~clock ()
  in
  let persist_once grade =
    let ( let* ) = Result.bind in
    let* ws, _ = Penguin.Recovery.open_store ~io store in
    let ws' = apply_edit ws ("EE280", 1) grade in
    Result.map ignore
      (R.Breaker.protect breaker @@ fun () ->
       Penguin.Recovery.persist ~io ~store
         ~since:(Penguin.Workspace.version ws) ws')
  in
  (* every fsync reports a non-transient disk fault: the breaker trips
     after exactly [threshold] consecutive failures *)
  D.set_schedule d (D.Rate { rate = 1.0; kinds = [ D.Hard ]; ops = [ `Sync ] });
  for i = 1 to 3 do
    match persist_once "C" with
    | Error (E.Io { transient = false; _ }) -> ()
    | Error (E.Busy _) ->
        Alcotest.failf "breaker tripped early, at failure %d" i
    | Error e -> Alcotest.failf "unexpected error: %s" (E.to_string e)
    | Ok () -> Alcotest.fail "persist must fail under a hard fault"
  done;
  Alcotest.(check bool) "tripped at the threshold" true
    (R.Breaker.state breaker = R.Breaker.Open);
  D.set_schedule d D.never;
  (* open: writes are shed without touching the disk... *)
  (match persist_once "C" with
  | Error (E.Busy msg) ->
      Alcotest.(check bool) "shed names degraded mode" true
        (Strutil.contains ~sub:"degraded" msg)
  | _ -> Alcotest.fail "open breaker must shed the persist");
  (* ...while reads keep serving: degraded read-only mode *)
  let ws, _ = reopen io in
  check_ok ~msg:"reads stay consistent while degraded"
    (Penguin.Workspace.check_consistency ws);
  Alcotest.(check bool) "no write landed" true
    (grade_of ws ("EE280", 1) <> Value.Str "C");
  (* past the cooldown the next persist is the probe; on a healthy disk
     it lands and the breaker re-closes *)
  clock.R.Clock.sleep_ns 2e6;
  check_ok_e ~msg:"probe persist" (persist_once "C");
  Alcotest.(check bool) "probe success re-closed the breaker" true
    (R.Breaker.state breaker = R.Breaker.Closed);
  D.crash d;
  let ws, _ = reopen io in
  Alcotest.(check bool) "the probe commit is durable" true
    (grade_of ws ("EE280", 1) = Value.Str "C")

(* --- injection determinism --------------------------------------------- *)

let fault_pattern ~seed n =
  let d =
    D.mem ~seed ~schedule:(D.Rate { rate = 0.3; kinds = [ D.Transient ]; ops = [ `Write ] }) ()
  in
  List.init n (fun i ->
      match (D.io d).F.write ~path:"scratch" ~append:false (Fmt.str "w%d" i) with
      | Ok () -> false
      | Error (E.Io { transient = true; _ }) -> true
      | Error e -> Alcotest.failf "unexpected error: %s" (E.to_string e))

let test_injection_deterministic () =
  let a = fault_pattern ~seed:9 200 in
  Alcotest.(check (list bool)) "same seed, same faults" a
    (fault_pattern ~seed:9 200);
  Alcotest.(check bool) "different seed, different faults" true
    (a <> fault_pattern ~seed:10 200);
  let fired = List.length (List.filter Fun.id a) in
  Alcotest.(check bool)
    (Fmt.str "rate is roughly honoured (%d/200 fired)" fired)
    true
    (fired > 30 && fired < 90)

(* --- lock contention and deadlines ------------------------------------- *)

(* A second process contending for the store lock respects its
   deadline: it gets a typed Deadline_exceeded, not a hang. *)
let test_lock_contention_respects_deadline () =
  let dir = temp_dir "lock-deadline" in
  make_store dir;
  let store = store_in dir in
  let pid =
    check_ok_e
      (F.with_lock store (fun () ->
           match Unix.fork () with
           | 0 ->
               (* child: the parent holds the lock; a bounded wait must
                  end in Deadline_exceeded, and promptly. *)
               let started = Unix.gettimeofday () in
               let deadline_ns =
                 Obs.Metrics.now_ns () +. 0.3 *. 1e9
               in
               let r = F.with_lock ~deadline_ns store (fun () -> Ok ()) in
               let waited = Unix.gettimeofday () -. started in
               let code =
                 match r with
                 | Error (E.Deadline_exceeded _) when waited < 5. -> 0
                 | Error (E.Deadline_exceeded _) -> 2 (* deadline ignored *)
                 | Error _ -> 3
                 | Ok () -> 4 (* exclusion failed *)
               in
               Unix._exit code
           | pid ->
               let _, status = Unix.waitpid [] pid in
               Alcotest.(check bool)
                 "contender saw Deadline_exceeded within its budget" true
                 (status = Unix.WEXITED 0);
               Ok pid))
  in
  ignore pid;
  (* with the holder gone, the same bounded acquisition succeeds *)
  let deadline_ns = Obs.Metrics.now_ns () +. 1e9 in
  check_ok_e ~msg:"free lock acquired under deadline"
    (F.with_lock ~deadline_ns store (fun () -> Ok ()));
  rm_rf dir

(* The OS releases an advisory lock when its holder dies: a crashed
   committer cannot wedge the store. *)
let test_lock_released_on_holder_death () =
  let dir = temp_dir "lock-death" in
  make_store dir;
  let store = store_in dir in
  let marker = Filename.concat dir "child-holds-lock" in
  (match Unix.fork () with
  | 0 ->
      ignore
        (F.with_lock store (fun () ->
             ignore
               (F.default.F.write ~path:marker ~append:false "held");
             (* die while holding the lock — no unlock path runs *)
             Unix.kill (Unix.getpid ()) Sys.sigkill;
             Ok ()));
      Unix._exit 1
  | pid ->
      (* wait for the child to take the lock, then for its death *)
      let rec wait_marker n =
        if Sys.file_exists marker then ()
        else if n = 0 then Alcotest.fail "child never acquired the lock"
        else begin
          Unix.sleepf 0.05;
          wait_marker (n - 1)
        end
      in
      wait_marker 100;
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "child was killed mid-hold" true
        (status = Unix.WSIGNALED Sys.sigkill));
  let deadline_ns = Obs.Metrics.now_ns () +. 2e9 in
  check_ok_e ~msg:"lock is free after the holder's death"
    (F.with_lock ~deadline_ns store (fun () -> Ok ()));
  rm_rf dir

let suite =
  [
    Alcotest.test_case "100 commits under 30% transient faults" `Quick
      test_transient_faults;
    Alcotest.test_case "100 commits under torn-write faults" `Quick
      test_torn_faults;
    Alcotest.test_case "100 commits under byte-corrupting faults" `Quick
      test_corrupt_faults;
    Alcotest.test_case "a failed persist leaves no record behind" `Quick
      test_failed_persist_keeps_nothing;
    Alcotest.test_case "a failed directory fsync during a cut loses no ack"
      `Quick test_failed_dir_fsync_during_cut;
    Alcotest.test_case "hard faults trip into degraded read-only mode" `Quick
      test_hard_faults_trip_into_degraded_mode;
    Alcotest.test_case "injection is seed-deterministic" `Quick
      test_injection_deterministic;
    Alcotest.test_case "lock contention respects the deadline" `Quick
      test_lock_contention_respects_deadline;
    Alcotest.test_case "lock is released when the holder dies" `Quick
      test_lock_released_on_holder_death;
  ]
