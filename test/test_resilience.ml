(* The resilience layer in isolation: deterministic backoff schedules,
   retry/deadline semantics over a virtual clock, and the circuit
   breaker's state machine. Everything here is seeded and
   clocked — no wall time, no randomness, so every run sees the same
   nanoseconds. *)

module R = Penguin.Resilience
module E = Penguin.Error
module M = Obs.Metrics

let counter name = M.Counter.value (M.counter name)

(* --- backoff schedules ------------------------------------------------- *)

let test_schedule_deterministic () =
  let p = { R.Policy.default with max_attempts = 8; seed = 42 } in
  let s1 = R.Policy.schedule p in
  let s2 = R.Policy.schedule p in
  Alcotest.(check int) "schedule length" 7 (List.length s1);
  Alcotest.(check bool) "same seed, same schedule" true (s1 = s2);
  let s3 = R.Policy.schedule { p with seed = 43 } in
  Alcotest.(check bool) "different seed, different schedule" true (s1 <> s3);
  (* per-attempt draws are independently deterministic too *)
  List.iteri
    (fun i d ->
      Alcotest.(check (float 1e-9))
        (Fmt.str "backoff %d reproducible" (i + 1))
        d
        (R.Policy.backoff_ns p ~attempt:(i + 1)))
    s1

let test_schedule_bounds () =
  let p =
    { R.Policy.default with max_attempts = 12; jitter = 0.2; seed = 7 }
  in
  List.iteri
    (fun i d ->
      let attempt = i + 1 in
      let raw =
        Float.min
          (p.R.Policy.base_delay_ns
          *. (p.R.Policy.multiplier ** float_of_int (attempt - 1)))
          p.R.Policy.max_delay_ns
      in
      Alcotest.(check bool)
        (Fmt.str "attempt %d within jitter band" attempt)
        true
        (d >= raw *. 0.8 -. 1e-6 && d <= raw *. 1.2 +. 1e-6))
    (R.Policy.schedule p);
  (* no jitter: the schedule is the pure capped exponential *)
  let pure = { p with jitter = 0. } in
  Alcotest.(check (float 1e-6)) "base delay exact"
    pure.R.Policy.base_delay_ns
    (R.Policy.backoff_ns pure ~attempt:1);
  Alcotest.(check (float 1e-6)) "doubling"
    (2. *. pure.R.Policy.base_delay_ns)
    (R.Policy.backoff_ns pure ~attempt:2);
  Alcotest.(check (float 1e-6)) "capped"
    pure.R.Policy.max_delay_ns
    (R.Policy.backoff_ns pure ~attempt:50);
  Alcotest.(check (list (float 1e-6))) "a zero base delay never sleeps"
    [ 0.; 0. ]
    (R.Policy.schedule
       { p with max_attempts = 3; base_delay_ns = 0.; jitter = 0. })

(* --- retry ------------------------------------------------------------- *)

let transient_io =
  E.io ~op:E.Write ~path:"<test>" ~transient:true "synthetic transient"

let hard_io = E.io ~op:E.Sync ~path:"<test>" "synthetic hard fault"

let flaky ~failures ~with_ err =
  let n = ref 0 in
  fun () ->
    incr n;
    if !n <= failures then Error err else Ok with_

let test_retry_eventually_succeeds () =
  let clock = R.Clock.instant () in
  Alcotest.(check (result int (of_pp E.pp))) "3rd attempt lands" (Ok 7)
    (R.retry ~clock ~label:"flaky" (flaky ~failures:2 ~with_:7 transient_io))

let test_retry_gives_up () =
  M.enable ();
  let clock = R.Clock.instant () in
  let calls = ref 0 in
  let before = counter "resilience.giveups" in
  (match
     R.retry ~clock
       ~policy:{ R.Policy.default with max_attempts = 4 }
       (fun () ->
         incr calls;
         Error transient_io)
   with
  | Ok () -> Alcotest.fail "must not succeed"
  | Error (E.Io { transient = true; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e));
  Alcotest.(check int) "exactly max_attempts calls" 4 !calls;
  Alcotest.(check int) "giveup counted" (before + 1)
    (counter "resilience.giveups")

let test_retry_fatal_is_immediate () =
  let clock = R.Clock.instant () in
  let calls = ref 0 in
  (match
     R.retry ~clock (fun () ->
         incr calls;
         Error hard_io)
   with
  | Error (E.Io { transient = false; _ }) -> ()
  | _ -> Alcotest.fail "hard fault must surface unchanged");
  Alcotest.(check int) "single attempt" 1 !calls;
  (* Invalid is equally fatal *)
  calls := 0;
  (match
     R.retry ~clock (fun () ->
         incr calls;
         Error (E.invalid "bad request"))
   with
  | Error (E.Invalid _) -> ()
  | _ -> Alcotest.fail "invalid must surface unchanged");
  Alcotest.(check int) "single attempt for Invalid" 1 !calls

let test_retry_deadline () =
  let clock = R.Clock.instant () in
  (* backoffs advance the virtual clock; a tight absolute deadline is
     crossed before the attempts run out *)
  let policy =
    { R.Policy.default with max_attempts = 100; jitter = 0.; seed = 1 }
  in
  let calls = ref 0 in
  let deadline_ns = clock.R.Clock.now_ns () +. 3.5e6 in
  (match
     R.retry ~clock ~policy ~deadline_ns ~label:"deadlined" (fun () ->
         incr calls;
         Error transient_io)
   with
  | Error (E.Deadline_exceeded msg) ->
      Alcotest.(check bool) "names the last error" true
        (Relational.Strutil.contains ~sub:"transient" msg)
  | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e)
  | Ok () -> Alcotest.fail "must not succeed");
  (* backoffs 1ms + 2ms would land the 3rd attempt at t=3ms; the next
     4ms backoff overshoots the 3.5ms budget, so exactly 3 calls ran *)
  Alcotest.(check int) "attempts bounded by the deadline" 3 !calls

(* --- the circuit breaker ------------------------------------------------ *)

let test_breaker_trips_only_on_durability_faults () =
  let clock = R.Clock.instant () in
  let b = R.Breaker.create ~label:"t" ~threshold:3 ~cooldown_ns:1e9 ~clock () in
  let run err = ignore (R.Breaker.protect b (fun () -> Error err)) in
  (* transient faults, lost races and caller mistakes never count *)
  run transient_io;
  run (E.conflict "lost race");
  run (E.invalid "bad request");
  Alcotest.(check bool) "still closed" true (R.Breaker.state b = R.Breaker.Closed);
  (* non-transient faults count, but a success resets the streak *)
  run hard_io;
  run hard_io;
  ignore (R.Breaker.protect b (fun () -> Ok ()));
  run hard_io;
  run hard_io;
  Alcotest.(check bool) "two-in-a-row under threshold stays closed" true
    (R.Breaker.state b = R.Breaker.Closed);
  run hard_io;
  Alcotest.(check bool) "third consecutive fault trips" true
    (R.Breaker.state b = R.Breaker.Open);
  Alcotest.(check bool) "degraded" true (R.Breaker.degraded b)

let test_breaker_open_probe_cycle () =
  let clock = R.Clock.instant () in
  let b = R.Breaker.create ~label:"t" ~threshold:1 ~cooldown_ns:1e9 ~clock () in
  ignore (R.Breaker.protect b (fun () -> Error hard_io));
  Alcotest.(check bool) "tripped" true (R.Breaker.state b = R.Breaker.Open);
  (* open: writes shed without running *)
  let ran = ref false in
  (match
     R.Breaker.protect b (fun () ->
         ran := true;
         Ok ())
   with
  | Error (E.Busy msg) ->
      Alcotest.(check bool) "names degraded mode" true
        (Relational.Strutil.contains ~sub:"degraded" msg)
  | _ -> Alcotest.fail "open breaker must reject with Busy");
  Alcotest.(check bool) "shed write never ran" false !ran;
  (* past the cooldown the breaker offers a probe; a failing probe
     re-opens for a fresh cooldown *)
  clock.R.Clock.sleep_ns 1.5e9;
  Alcotest.(check bool) "half-open after cooldown" true
    (R.Breaker.state b = R.Breaker.Half_open);
  ignore (R.Breaker.protect b (fun () -> Error hard_io));
  Alcotest.(check bool) "failed probe re-opens" true
    (R.Breaker.state b = R.Breaker.Open);
  (* and a successful probe closes it for good *)
  clock.R.Clock.sleep_ns 1.5e9;
  (match R.Breaker.protect b (fun () -> Ok `Probe) with
  | Ok `Probe -> ()
  | _ -> Alcotest.fail "probe must run");
  Alcotest.(check bool) "successful probe closes" true
    (R.Breaker.state b = R.Breaker.Closed);
  Alcotest.(check bool) "not degraded" false (R.Breaker.degraded b);
  (* reset is an operator override *)
  ignore (R.Breaker.protect b (fun () -> Error hard_io));
  R.Breaker.reset b;
  Alcotest.(check bool) "reset closes" true (R.Breaker.state b = R.Breaker.Closed)

(* --- the error taxonomy ------------------------------------------------- *)

let test_classification () =
  let cases =
    [ E.conflict "c", true, false;
      E.busy "b", true, false;
      transient_io, true, false;
      hard_io, false, true;
      E.corrupt "bad crc", false, true;
      E.invalid "i", false, false;
      E.deadline_exceeded "d", false, false ]
  in
  List.iter
    (fun (e, retryable, trips) ->
      Alcotest.(check bool)
        (Fmt.str "%s retryable" (E.kind e))
        retryable (E.retryable e);
      Alcotest.(check bool)
        (Fmt.str "%s feeds the breaker" (E.kind e))
        trips (E.breaker_fault e))
    cases;
  (* errno classification *)
  Alcotest.(check bool) "EINTR transient" true (E.transient_errno Unix.EINTR);
  Alcotest.(check bool) "ENOSPC fatal" false (E.transient_errno Unix.ENOSPC);
  (* rendering carries the class and the context *)
  let e = E.with_context "persist" transient_io in
  Alcotest.(check bool) "context prefixed" true
    (Relational.Strutil.contains ~sub:"persist" (E.to_string e));
  Alcotest.(check bool) "still transient after context" true (E.retryable e);
  match E.to_json hard_io with
  | Obs.Json.Obj fields ->
      Alcotest.(check bool) "json carries kind" true
        (List.mem_assoc "kind" fields && List.mem_assoc "transient" fields)
  | _ -> Alcotest.fail "error json must be an object"

let suite =
  [
    Alcotest.test_case "backoff schedule is seed-deterministic" `Quick
      test_schedule_deterministic;
    Alcotest.test_case "backoff stays in the jitter band and caps" `Quick
      test_schedule_bounds;
    Alcotest.test_case "retry lands after transient faults" `Quick
      test_retry_eventually_succeeds;
    Alcotest.test_case "retry gives up at max attempts" `Quick
      test_retry_gives_up;
    Alcotest.test_case "fatal errors never retry" `Quick
      test_retry_fatal_is_immediate;
    Alcotest.test_case "deadline cuts the retry loop" `Quick
      test_retry_deadline;
    Alcotest.test_case "breaker trips only on durability faults" `Quick
      test_breaker_trips_only_on_durability_faults;
    Alcotest.test_case "breaker open/probe/close cycle" `Quick
      test_breaker_open_probe_cycle;
    Alcotest.test_case "error classification and rendering" `Quick
      test_classification;
  ]
