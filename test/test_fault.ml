(* Transient-fault injection over the durable serving path.

   Where test_recovery kills the process at chosen I/O points, this
   suite makes I/O fail *and continue*: every faulted primitive returns
   a typed transient or hard Error.Io and the resilience layer — retry
   with backoff, the circuit breaker, lock deadlines — must absorb it.
   The central property: a 100-commit workload under a 30% transient
   append and fsync fault rate completes with zero lost and zero duplicated
   commits, and never trips the breaker; hard faults trip it within the
   threshold, reads keep working, and a post-cooldown probe re-closes
   it. Every draw is seeded, so a failure reproduces exactly. *)
open Relational
open Viewobject
open Test_util

module R = Penguin.Resilience
module E = Penguin.Error
module F = Penguin.Fsio

let store_in dir = Filename.concat dir "store.pgn"

let make_store dir =
  let ws = Penguin.University.workspace () in
  check_ok_e (Penguin.Store.save_file ws (store_in dir))

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

let apply_edit ws enrolment grade =
  let ws', outcome =
    Penguin.Workspace.update ws "omega" (grade_edit ws enrolment grade)
  in
  (match outcome.Vo_core.Engine.result with
  | Transaction.Committed _ -> ()
  | Transaction.Rolled_back { reason; _ } ->
      Alcotest.failf "update: %s" reason);
  ws'

(* One durable commit the CLI's way — open, translate, persist — with
   the persist (the faulted leg) wrapped in the retry policy. *)
let commit_grade ~io ?breaker ~clock dir enrolment grade =
  let ( let* ) = Result.bind in
  let store = store_in dir in
  let* ws, _ = Penguin.Recovery.open_store store in
  let ws' = apply_edit ws enrolment grade in
  let* _p =
    R.retry ~clock
      ~policy:{ R.Policy.default with max_attempts = 24; seed = 11 }
      ~label:"persist" (fun () ->
        Penguin.Recovery.persist ~io ?breaker ~store
          ~since:(Penguin.Workspace.version ws) ws')
  in
  Ok ()

(* An io that treats a failed fsync the way Linux may: the kernel marks
   the failed pages clean without writing them, so a later fsync
   succeeds and reads still return the bytes from the page cache. Only
   a crash shows them gone. Bytes appended to a file since its last
   good fsync become lost when an fsync of it fails. The returned
   [crash] cuts each such file back to its first lost byte, which
   replay reads as a torn tail. A rename carries the source's lost
   bytes to the destination, so replacing a file with a fresh, synced
   copy clears them. *)
let lossy_fsync (io : F.t) =
  let pending = Hashtbl.create 4 (* first byte written since a good fsync *)
  and lost = Hashtbl.create 4 (* first byte a failed fsync dropped *) in
  let size path =
    try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0
  in
  let move tbl ~src ~dst =
    Hashtbl.remove tbl dst;
    Option.iter (Hashtbl.replace tbl dst) (Hashtbl.find_opt tbl src);
    Hashtbl.remove tbl src
  in
  let write ~path ~append content =
    if not append then (
      Hashtbl.remove lost path;
      Hashtbl.replace pending path 0)
    else if not (Hashtbl.mem pending path) then
      Hashtbl.replace pending path (size path);
    io.F.write ~path ~append content
  in
  let sync path =
    let r = io.F.sync path in
    (match r, Hashtbl.find_opt pending path with
    | Error _, Some off when not (Hashtbl.mem lost path) ->
        Hashtbl.replace lost path off
    | _ -> ());
    Hashtbl.remove pending path;
    r
  in
  let rename ~src ~dst =
    let r = io.F.rename ~src ~dst in
    if Result.is_ok r then (
      move pending ~src ~dst;
      move lost ~src ~dst);
    r
  in
  let crash () =
    Hashtbl.iter
      (fun path off -> if Sys.file_exists path then Unix.truncate path off)
      lost;
    Hashtbl.reset lost
  in
  { io with F.write; sync; rename }, crash

(* --- the central property ---------------------------------------------- *)

(* 100 commits, each persisting through an io whose writes and fsyncs
   fail transiently 30% of the time: nothing may be lost, nothing may land
   twice, and the breaker must treat all of it as weather. *)
let commits_survive_faults ~kind ~seed () =
  let dir = temp_dir "fault" in
  Obs.Metrics.enable ();
  make_store dir;
  let clock = R.Clock.instant () in
  (* Faults target the append writes and their fsyncs. A failed fsync
     leaves the record whole in the file but maybe not on disk: the
     retry must find it and write it again, rather than append it twice,
     refuse it as a concurrent commit, or trust a second fsync. *)
  let io, crash =
    lossy_fsync
      (F.Fault.inject ~seed ~rate:0.3 ~kind ~ops:[ `Write; `Sync ] F.default)
  in
  let breaker = R.Breaker.create ~label:"fault-suite" ~threshold:3 () in
  let ws0, _ = check_ok_e (Penguin.Recovery.open_store (store_in dir)) in
  let v0 = Penguin.Workspace.version ws0 in
  let injected_before =
    Obs.Metrics.Counter.value (Obs.Metrics.counter "fsio.injected_faults")
  in
  let grade i = if i mod 2 = 0 then "A" else "B" in
  for i = 1 to 100 do
    check_ok_e
      ~msg:(Fmt.str "commit %d" i)
      (commit_grade ~io ~breaker ~clock dir ("CS345", 2) (grade i))
  done;
  Alcotest.(check bool) "the fault rate was real (>=10 faults injected)" true
    (Obs.Metrics.Counter.value (Obs.Metrics.counter "fsio.injected_faults")
     - injected_before
    >= 10);
  (* zero lost, zero duplicated: the committed history advanced by
     exactly one version per commit, and replays cleanly after a crash *)
  crash ();
  let ws, report = check_ok_e (Penguin.Recovery.open_store (store_in dir)) in
  check_ok ~msg:"recovered state is consistent"
    (Penguin.Workspace.check_consistency ws);
  Alcotest.(check int) "exactly 100 commits durable" (v0 + 100)
    (Penguin.Workspace.version ws);
  Alcotest.(check int) "replay agrees" (v0 + 100) report.Penguin.Recovery.version;
  Alcotest.(check bool) "last write wins" true
    (grade_of ws ("CS345", 2) = Value.Str (grade 100));
  (* transient weather never trips the breaker *)
  Alcotest.(check bool) "breaker stayed closed" true
    (R.Breaker.state breaker = R.Breaker.Closed);
  rm_rf dir

let test_transient_faults () =
  commits_survive_faults ~kind:F.Fault.Transient ~seed:1 ()

(* Torn writes leave a checksum-invalid tail on disk; the retried
   persist must truncate it before re-appending. *)
let test_torn_faults () = commits_survive_faults ~kind:F.Fault.Torn ~seed:2 ()

(* A flipped byte lands fully on disk; the framing CRC catches it and
   the retry repairs, same as a torn tail. *)
let test_corrupt_faults () =
  commits_survive_faults ~kind:F.Fault.Corrupt ~seed:3 ()

(* --- degraded read-only mode ------------------------------------------- *)

let test_hard_faults_trip_into_degraded_mode () =
  let dir = temp_dir "degrade" in
  make_store dir;
  let store = store_in dir in
  let clock = R.Clock.instant () in
  let hard_io =
    F.Fault.inject ~seed:4 ~rate:1.0 ~kind:F.Fault.Hard ~ops:[ `Sync ] F.default
  in
  let breaker =
    R.Breaker.create ~label:"degrade" ~threshold:3 ~cooldown_ns:1e6 ~clock ()
  in
  let persist_once ~io grade =
    let ( let* ) = Result.bind in
    let* ws, _ = Penguin.Recovery.open_store store in
    let ws' = apply_edit ws ("EE280", 1) grade in
    Result.map ignore
      (Penguin.Recovery.persist ~io ~breaker ~store
         ~since:(Penguin.Workspace.version ws) ws')
  in
  (* every fsync reports a non-transient disk fault: the breaker trips
     after exactly [threshold] consecutive failures *)
  for i = 1 to 3 do
    match persist_once ~io:hard_io "C" with
    | Error (E.Io { transient = false; _ }) -> ()
    | Error (E.Busy _) ->
        Alcotest.failf "breaker tripped early, at failure %d" i
    | Error e -> Alcotest.failf "unexpected error: %s" (E.to_string e)
    | Ok () -> Alcotest.fail "persist must fail under a hard fault"
  done;
  Alcotest.(check bool) "tripped at the threshold" true
    (R.Breaker.state breaker = R.Breaker.Open);
  (* open: writes are shed without touching the disk... *)
  (match persist_once ~io:F.default "C" with
  | Error (E.Busy msg) ->
      Alcotest.(check bool) "shed names degraded mode" true
        (Strutil.contains ~sub:"degraded" msg)
  | _ -> Alcotest.fail "open breaker must shed the persist");
  (* ...while reads keep serving: degraded read-only mode *)
  let ws, _ = check_ok_e (Penguin.Recovery.open_store store) in
  check_ok ~msg:"reads stay consistent while degraded"
    (Penguin.Workspace.check_consistency ws);
  Alcotest.(check bool) "no write landed" true
    (grade_of ws ("EE280", 1) <> Value.Str "C");
  (* past the cooldown the next persist is the probe; on a healthy disk
     it lands and the breaker re-closes *)
  clock.R.Clock.sleep_ns 2e6;
  check_ok_e ~msg:"probe persist" (persist_once ~io:F.default "C");
  Alcotest.(check bool) "probe success re-closed the breaker" true
    (R.Breaker.state breaker = R.Breaker.Closed);
  let ws, _ = check_ok_e (Penguin.Recovery.open_store store) in
  Alcotest.(check bool) "the probe commit is durable" true
    (grade_of ws ("EE280", 1) = Value.Str "C");
  rm_rf dir

(* --- injection determinism --------------------------------------------- *)

let fault_pattern ~seed n =
  let io =
    F.Fault.inject ~seed ~rate:0.3 ~kind:F.Fault.Transient ~ops:[ `Write ]
      F.default
  in
  let dir = temp_dir "pattern" in
  let path = Filename.concat dir "scratch" in
  let pat =
    List.init n (fun i ->
        match io.F.write ~path ~append:false (Fmt.str "w%d" i) with
        | Ok () -> false
        | Error (E.Io { transient = true; _ }) -> true
        | Error e -> Alcotest.failf "unexpected error: %s" (E.to_string e))
  in
  rm_rf dir;
  pat

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
    Alcotest.test_case "hard faults trip into degraded read-only mode" `Quick
      test_hard_faults_trip_into_degraded_mode;
    Alcotest.test_case "injection is seed-deterministic" `Quick
      test_injection_deterministic;
    Alcotest.test_case "lock contention respects the deadline" `Quick
      test_lock_contention_respects_deadline;
    Alcotest.test_case "lock is released when the holder dies" `Quick
      test_lock_released_on_holder_death;
  ]
