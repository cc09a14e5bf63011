(* The observability layer: metrics registry, trace spans, the
   registry as a real server, follower and persist fill it and a
   [(stats)] scrape shows it, and the CI bench-regression gate logic. *)

open Test_util

module M = Obs.Metrics
module T = Obs.Trace
module J = Obs.Json

(* The registry and the trace sink are process-global; every test
   starts from a known state. *)
let fresh () =
  M.reset ();
  M.enable ();
  T.set_sink None

(* --- metrics ----------------------------------------------------------- *)

let test_counter_gauge () =
  fresh ();
  let c = M.counter "t.counter" in
  M.Counter.incr c;
  M.Counter.add c 4;
  Alcotest.(check int) "counter accumulates" 5 (M.Counter.value c);
  Alcotest.(check bool) "re-registration is the same counter" true
    (M.Counter.value (M.counter "t.counter") = 5);
  let g = M.gauge "t.gauge" in
  M.Gauge.set g 3.5;
  M.Gauge.add g (-1.0);
  Alcotest.(check (float 1e-9)) "gauge set+add" 2.5 (M.Gauge.value g);
  M.disable ();
  M.Counter.incr c;
  M.Gauge.set g 99.;
  Alcotest.(check int) "disabled counter is a no-op" 5 (M.Counter.value c);
  Alcotest.(check (float 1e-9)) "disabled gauge is a no-op" 2.5
    (M.Gauge.value g);
  M.enable ();
  Alcotest.check_raises "name registered as another kind"
    (Invalid_argument "metric t.counter is already registered as another kind")
    (fun () -> ignore (M.gauge "t.counter"))

(* Every histogram has one layout: 8 sub-buckets per octave, so the
   bucket holding v covers [2^o (1 + s/8), 2^o (1 + (s+1)/8)). *)
let test_histogram_bucketing () =
  fresh ();
  let h = M.histogram "t.hist" in
  List.iter (M.Histogram.observe h) [ 5.; 7.; 50.; 500.; 4096.; 50000.; 1e11 ];
  Alcotest.(check int) "count" 7 (M.Histogram.count h);
  Alcotest.(check (float 1e-6)) "sum" (1e11 +. 54658.) (M.Histogram.sum h);
  Alcotest.(check (float 1e-6)) "max" 1e11 (M.Histogram.max_value h);
  (* 5 is in [5, 5.5) of the octave [4, 8); a power of two opens its
     octave's first eighth; 1e11 is past 2^36 ns, in the overflow
     bucket. *)
  Alcotest.(check (list (pair (float 1e-6) int)))
    "bucket occupancy"
    [ 5.5, 1; 7.5, 1; 52., 1; 512., 1; 4608., 1; 53248., 1; infinity, 1 ]
    (M.Histogram.buckets h);
  (* A quantile is the upper bound of the bucket holding the
     ceil(q n)-th observation: here the 4th, 500. *)
  Alcotest.(check (float 1e-6)) "p50" 512. (M.Histogram.quantile h 0.5);
  Alcotest.(check (float 1e-6)) "p0 is the smallest observation's bucket" 5.5
    (M.Histogram.quantile h 0.0);
  (* the overflow bucket has no upper bound; the estimate clamps to the
     observed maximum instead of reporting infinity *)
  Alcotest.(check (float 1e-6)) "p100 clamps to the observed max" 1e11
    (M.Histogram.quantile h 1.0);
  let tiny = M.histogram "t.hist.tiny" in
  M.Histogram.observe tiny 0.25;
  Alcotest.(check (list (pair (float 1e-6) int)))
    "below 1 ns: the first bucket" [ 1.125, 1 ] (M.Histogram.buckets tiny);
  Alcotest.(check (float 1e-6)) "clamped to the max" 0.25
    (M.Histogram.quantile tiny 0.5);
  let empty = M.histogram "t.hist.empty" in
  Alcotest.(check (float 1e-6)) "empty histogram quantile" 0.
    (M.Histogram.quantile empty 0.5)

(* Against exact order statistics of random samples, log-uniform over
   1 us .. 10 s: the reported quantile is never below the exact one and
   at most 12.5% above it. *)
let prop_quantile_within_bound =
  let arb =
    QCheck.make
      ~print:(fun (us, q) ->
        Fmt.str "n=%d q=%g first=%g" (List.length us) q
          (match us with u :: _ -> u | [] -> nan))
      QCheck.Gen.(
        pair
          (list_size (int_range 1 2000) (float_range 0. 1.))
          (float_range 0. 1.))
  in
  QCheck.Test.make ~name:"quantile within 12.5% of the exact order statistic"
    ~count:200 arb
  @@ fun (us, q) ->
  fresh ();
  let h = M.histogram "t.quantile" in
  let samples = List.map (fun u -> 1e3 *. (10. ** (7. *. u))) us in
  List.iter (M.Histogram.observe h) samples;
  let sorted = Array.of_list (List.sort Float.compare samples) in
  let n = Array.length sorted in
  List.for_all
    (fun q ->
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
      let exact = sorted.(rank - 1) and got = M.Histogram.quantile h q in
      exact <= got && got <= 1.125 *. exact)
    [ 0.; 0.5; 0.9; 0.99; 1.; q ]

(* Two domains hammering the same metrics concurrently: counters are
   Atomic fetch-and-add, histograms take a per-histogram mutex, and
   registration is mutex-guarded — no increment may be lost and no
   registration may be duplicated. *)
let test_domain_safety_hammer () =
  fresh ();
  let rounds = 25_000 in
  let worker id () =
    (* Re-register by name from both domains: first-use registration
       must race safely and return the one shared metric. *)
    let c = M.counter "t.hammer.counter" in
    let g = M.gauge "t.hammer.gauge" in
    let h = M.histogram "t.hammer.hist" in
    for i = 1 to rounds do
      M.Counter.incr c;
      M.Gauge.add g 1.0;
      M.Histogram.observe h (float_of_int ((i + id) mod 150))
    done
  in
  let d = Domain.spawn (worker 1) in
  worker 0 ();
  Domain.join d;
  Alcotest.(check int) "no counter increment lost" (2 * rounds)
    (M.Counter.value (M.counter "t.hammer.counter"));
  Alcotest.(check (float 1e-6)) "no gauge add lost"
    (float_of_int (2 * rounds))
    (M.Gauge.value (M.gauge "t.hammer.gauge"));
  let h = M.histogram "t.hammer.hist" in
  Alcotest.(check int) "no observation lost" (2 * rounds)
    (M.Histogram.count h);
  Alcotest.(check int) "bucket counts also sum up" (2 * rounds)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (M.Histogram.buckets h));
  Alcotest.(check int) "one registration per name" 3
    (List.length
       (List.filter
          (fun (name, _) -> Relational.Strutil.contains ~sub:"t.hammer" name)
          (M.all ())))

(* --- timed regions ------------------------------------------------------- *)

(* Install a sink that keeps every finished span; the returned function
   uninstalls it and gives the spans in finish order. *)
let collect_spans () =
  let spans = ref [] in
  T.set_sink (Some (fun s -> spans := s :: !spans));
  fun () ->
    T.set_sink None;
    List.rev !spans

let test_time_records_on_raise () =
  fresh ();
  let h = M.histogram "t.time_ns" in
  (try T.with_span h (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "raising thunk still observed" 1 (M.Histogram.count h);
  M.disable ();
  T.with_span h ignore;
  M.enable ();
  Alcotest.(check int) "metrics off, no sink: not observed" 1
    (M.Histogram.count h)

let test_span_nesting () =
  fresh ();
  let outer_h = M.histogram "t.outer_ns" and inner_h = M.histogram "t.inner_ns" in
  let spans = collect_spans () in
  let result =
    T.with_span outer_h ~tags:[ "k", "v" ] (fun () ->
        T.with_span inner_h (fun () ->
            T.tag "mid" "yes";
            7))
  in
  let spans = spans () in
  Alcotest.(check int) "thunk result" 7 result;
  match spans with
  | [ inner; outer ] ->
      (* children finish (and are emitted) before parents; a span is
         named after its histogram, without the _ns *)
      Alcotest.(check string) "inner first" "t.inner" inner.T.name;
      Alcotest.(check string) "outer second" "t.outer" outer.T.name;
      Alcotest.(check int) "root parent is 0" 0 outer.T.parent;
      Alcotest.(check int) "inner's parent is outer" outer.T.id inner.T.parent;
      Alcotest.(check int) "outer depth" 0 outer.T.depth;
      Alcotest.(check int) "inner depth" 1 inner.T.depth;
      Alcotest.(check bool) "ids dense from 1" true
        (outer.T.id = 1 && inner.T.id = 2);
      Alcotest.(check (list (pair string string))) "declared tags"
        [ "k", "v" ] outer.T.tags;
      Alcotest.(check (list (pair string string))) "tag hits innermost span"
        [ "mid", "yes" ] inner.T.tags;
      Alcotest.(check bool) "durations non-negative" true
        (inner.T.duration_ns >= 0. && outer.T.duration_ns >= 0.);
      (* one clock pair feeds both: the histogram holds the span's
         duration *)
      Alcotest.(check (float 0.)) "histogram records the span's duration"
        outer.T.duration_ns (M.Histogram.sum outer_h);
      Alcotest.(check int) "inner recorded once" 1 (M.Histogram.count inner_h)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_finishes_on_raise () =
  fresh ();
  let raising = M.histogram "t.raising_ns" and after = M.histogram "t.after_ns" in
  let spans = collect_spans () in
  (try T.with_span raising (fun () -> failwith "boom") with Failure _ -> ());
  (* the stack must be clean: a next root span really is a root *)
  T.with_span after ignore;
  match spans () with
  | [ raising; after ] ->
      Alcotest.(check string) "raising span emitted" "t.raising" raising.T.name;
      Alcotest.(check int) "stack popped on raise" 0 after.T.parent
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_lines_well_formed () =
  fresh ();
  let outer = M.histogram "t.lines.outer_ns"
  and inner = M.histogram "inner \"quoted\"\nname_ns" in
  let spans = collect_spans () in
  T.with_span outer ~tags:[ "mode", "incremental"; "quote", {|a"b|} ]
    (fun () -> T.with_span inner ignore);
  List.iter
    (fun s ->
      let line = T.sexp_line s in
      Alcotest.(check bool) "one line" false (String.contains line '\n');
      match Relational.Sexp.parse line with
      | Error e -> Alcotest.failf "sexp line unparseable: %s" e
      | Ok (Relational.Sexp.List (Relational.Sexp.Atom "span" :: fields)) ->
          Alcotest.(check (option (list string)))
            "name survives the round-trip" (Some [ s.T.name ])
            (Option.map
               (List.map (function
                 | Relational.Sexp.Atom a -> a
                 | Relational.Sexp.List _ -> Alcotest.fail "name is a list"))
               (Relational.Sexp.keyed_opt "name" fields))
      | Ok _ -> Alcotest.failf "not a span line: %s" line)
    (spans ())

(* --- json --------------------------------------------------------------- *)

let test_json_roundtrip () =
  let doc =
    J.Obj
      [ "s", J.Str "a\"b\\c\nd\t\x01e";
        "n", J.Num 1234.5;
        "i", J.Num 42.;
        "b", J.Bool true;
        "z", J.Null;
        "a", J.Arr [ J.Num 1.; J.Obj [ "nested", J.Str "unicode: \xc3\xa9" ] ] ]
  in
  match J.parse (J.to_string doc) with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok doc' ->
      Alcotest.(check bool) "document equal after round-trip" true
        (J.equal doc doc');
      (* non-finite numbers degrade to null rather than emitting
         unparseable tokens *)
      Alcotest.(check string) "nan is null" "null" (J.to_string (J.Num nan))

(* Any finite float, printed and parsed back, is the same float: a
   double's bits, a sum whose shortest decimal needs 17 digits, and an
   integer past 1e15. *)
let prop_json_number_roundtrip =
  let gen =
    QCheck.Gen.(
      frequency
        [ 4, map Int64.float_of_bits int64;
          2, map2 (fun a b -> float_of_int a /. 10. +. (float_of_int b /. 10.))
               small_signed_int small_signed_int;
          2, map float_of_int int;
          1, oneofl [ 0.1 +. 0.2; 1234567890123456.; -0.; 5e-324; max_float ] ])
  in
  QCheck.Test.make ~name:"a finite json number reads back equal" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun f ->
      QCheck.assume (Float.is_finite f);
      match J.parse (J.to_string (J.Num f)) with
      | Ok (J.Num g) -> Float.equal f g
      | _ -> false)

(* --- the registry, filled by real paths -------------------------------- *)

module C = Penguin.Client
module F = Penguin.Fsio
module R = Penguin.Replica

(* Queue [stmt] on [c]'s open session and send its commit. *)
let send_stmt c stmt =
  let n = check_ok_e (C.queue c ~object_name:"omega" stmt) in
  Alcotest.(check int) "one staged update" 1 n;
  check_ok_e (C.send_commit c)

let send_grade c ~course ~grade =
  send_stmt c (Test_server.grade_stmt ~course ~grade)

(* Reads through the server's cache (cold, then warm); an edit to
   CURRICULUM, outside omega_prime's footprint, so its warm entries skip
   the patch; then two sessions begun on one version that edit the same
   tuple: the second to commit rebases. [collect c] waits for the ack of
   the commit [c] just sent. *)
let reads_and_rebase c c2 ~collect =
  List.iter
    (fun obj ->
      for _ = 1 to 2 do
        ignore (check_ok_e (C.oql c ~object_name:obj "course_id = 'BENCH001'"))
      done)
    [ "omega"; "omega_prime" ];
  let _ = check_ok_e (C.begin_ c) in
  send_stmt c
    "set CURRICULUM[degree = 'BS CS'] requirement = 'elective' where \
     course_id = 'CS101'";
  collect c;
  let _ = check_ok_e (C.begin_ c) and _ = check_ok_e (C.begin_ c2) in
  send_grade c ~course:1 ~grade:"A+";
  collect c;
  send_grade c2 ~course:1 ~grade:"B+";
  collect c2

(* The serving path with quorum acks: one push follower on a link that
   delays every call. The first window's write fault is retried; two
   sessions on one tuple rebase; a clean window releases by quorum; a
   stalled one acks under-replicated and evicts the follower, while a
   second client's commit is shed at the one parking slot; the follower
   catches up and is re-admitted. *)
let quorum_traffic dir =
  let config =
    { Penguin.Server.default_config with
      Penguin.Server.sync_replicas = 1; repl_deadline_ns = 1e9; max_parked = 1 }
  in
  (* The first journal append fails transiently: the server's durable
     append retries it. *)
  let disk =
    Test_disk.real
      ~schedule:
        (Test_disk.Once
           [ `Write, Penguin.Journal.journal_path (Test_server.store_in dir),
             Test_disk.Transient ])
      ()
  in
  fst
  @@ Test_server.with_server ~io:(Test_disk.io disk) ~config dir
  @@ fun sock ->
  let r =
    check_ok_e
      (R.create ~feed:(Penguin.Shipper.feed ~sock)
         ~target:(Test_replica.target_in dir) ())
  in
  let _ = Test_replica.catch_up r in
  let net =
    Test_net.inject ~seed:5 ~rate:1.0 ~kind:(Test_net.Delay 1e-4)
      Penguin.Netio.default_net
  in
  let p = check_ok_e (R.subscribe ~net r ~sock) in
  let c = Test_server.connect sock and c2 = Test_server.connect sock in
  let collect c =
    Test_quorum.drive_push r p;
    let ack = check_ok_e (C.recv_commit_ack c) in
    Alcotest.(check bool) "a driven follower meets the quorum" false
      ack.C.under_replicated
  in
  reads_and_rebase c c2 ~collect;
  let ack =
    Test_quorum.pipelined_commit c ~course:2 ~grade:"C" ~between:(fun () ->
        let _ = check_ok_e (C.begin_ c2) in
        let _ =
          check_ok_e
            (C.queue c2 ~object_name:"omega"
               (Test_server.grade_stmt ~course:1 ~grade:"D"))
        in
        let e = check_err_e (C.commit c2) in
        Alcotest.(check string) "the one slot is taken: shed" "busy"
          (Penguin.Error.kind e))
  in
  Alcotest.(check bool) "a stalled follower degrades the ack" true
    ack.C.under_replicated;
  Test_quorum.drive_push r p;
  let _ = check_ok_e (C.begin_ c) in
  send_grade c ~course:2 ~grade:"A";
  collect c;
  R.push_close p;
  C.close c;
  C.close c2

(* A follower on the leader's files (the CLI's [replica sync]): it
   catches up, serves a read, quarantines a checksum-valid frame of
   garbage after refetching it, and is promoted. *)
let follower_traffic dir =
  let target = Filename.concat dir "file-follower.pgn" in
  let r =
    check_ok_e
      (R.create ~refetch_limit:2 ~feed:(R.file_feed (Test_recovery.store_in dir))
         ~target ())
  in
  let _ = Test_replica.catch_up r in
  Alcotest.(check (float 1e-9)) "caught up: no lag" 0.
    (M.Gauge.value (M.gauge "replica.lag_records"));
  Alcotest.(check bool) "the follower serves reads" true
    (check_ok (R.instances r "omega") <> []);
  check_ok_e
    (F.default.F.write
       ~path:(Penguin.Journal.journal_path (Test_recovery.store_in dir))
       ~append:true
       (Penguin.Journal.frame "(not a journal record)"));
  let _ = R.poll r and _ = R.poll r in
  Alcotest.(check string) "quarantined, not wedged" "degraded"
    (R.status_label (R.status r));
  let _ws, epoch = check_ok_e (R.promote r) in
  Alcotest.(check int) "promotion bumps the epoch" 1 epoch

(* The CLI's [session commit] path: open the store, commit a session
   in memory, persist it. The persists rotate the journal; a torn tail is
   cut away by a repairing open; and a breaker over hard fsync faults
   trips, rejects, then probes and closes past its cooldown. *)
let persist_traffic dir =
  Test_recovery.make_store dir;
  let store = Test_recovery.store_in dir in
  let commit ?(io = F.default) ?breaker grade =
    let ws, report = check_ok_e (Penguin.Recovery.open_store store) in
    let sess =
      check_ok_e
        (Penguin.Session.queue_stmt (Penguin.Session.begin_ ws) "omega"
           (Fmt.str "set GRADES[pid = 2] grade = '%s' where course_id = 'CS345'"
              grade))
    in
    let ws', _ = check_ok_e (Penguin.Session.commit ws sess) in
    let persist () =
      Penguin.Recovery.persist ~io
        ~snapshot_bytes:report.Penguin.Recovery.snapshot_bytes ~store
        ~since:(Penguin.Workspace.version ws)
        ~expect_epoch:report.Penguin.Recovery.epoch ws'
    in
    match breaker with
    | None -> persist ()
    | Some b -> Penguin.Resilience.Breaker.protect b persist
  in
  (* The second grade is as long as the snapshot: its commit rotates. *)
  List.iter
    (fun grade -> ignore (check_ok_e (commit grade)))
    [ "A-"; Test_recovery.rotating_grade dir; "C-" ];
  check_ok_e
    (F.default.F.write ~path:(Penguin.Journal.journal_path store) ~append:true
       "torn");
  let _, report = check_ok_e (Penguin.Recovery.open_store ~repair:true store) in
  Alcotest.(check bool) "the torn tail was cut away" true
    (report.Penguin.Recovery.torn_bytes > 0);
  let clock = Penguin.Resilience.Clock.instant () in
  let breaker =
    Penguin.Resilience.Breaker.create ~label:"obs" ~threshold:1
      ~cooldown_ns:1e6 ~clock ()
  in
  let hard =
    Test_disk.io
      (Test_disk.real
         ~schedule:(Test_disk.Rate { rate = 1.0; kinds = [ Test_disk.Hard ]; ops = [ `Sync ] })
         ())
  in
  Alcotest.(check string) "a hard fault fails the persist" "io"
    (Penguin.Error.kind (check_err_e (commit ~io:hard ~breaker "D")));
  Alcotest.(check string) "the open breaker rejects" "busy"
    (Penguin.Error.kind (check_err_e (commit ~breaker "D")));
  clock.Penguin.Resilience.Clock.sleep_ns 2e6;
  ignore (check_ok_e (commit ~breaker "D"))

(* What a server's [(stats)] answer holds, parsed. *)
let scrape dir =
  fst
  @@ Test_server.with_server dir
  @@ fun sock ->
  let c = Test_server.connect sock in
  let json = check_ok_e (C.stats c) in
  C.close c;
  check_ok (J.parse json)

let test_real_paths_and_json () =
  fresh ();
  let dir = temp_dir "obs-real" and pdir = temp_dir "obs-persist" in
  Test_server.make_bench_store dir 2;
  Test_replica.commit dir "A-";
  quorum_traffic dir;
  follower_traffic dir;
  persist_traffic pdir;
  let doc = scrape pdir in
  let file_bytes path = float_of_int (String.length (Test_recovery.read_raw path)) in
  let store = Test_recovery.store_in pdir in
  let journal_bytes = file_bytes (Penguin.Journal.journal_path store)
  and snapshot_bytes = file_bytes store in
  rm_rf dir;
  rm_rf pdir;
  (* The scrape round-trips through the bundled parser... *)
  (match J.parse (J.to_string doc) with
  | Error e -> Alcotest.failf "stats json does not re-parse: %s" e
  | Ok doc' ->
      Alcotest.(check bool) "stats json round-trips" true (J.equal doc doc'));
  (* ...carries the whole registry... *)
  List.iter
    (fun (name, m) ->
      let section =
        match m with
        | M.Counter_m _ -> "counters"
        | M.Gauge_m _ -> "gauges"
        | M.Histogram_m _ -> "histograms"
      in
      if Option.bind (J.member section doc) (J.member name) = None then
        Alcotest.failf "metric %s missing from the (stats) %s" name section)
    (M.all ());
  (* ...and shows every instrumented layer fired. *)
  let value section name =
    match
      Option.bind (J.member section doc) (fun s ->
          Option.bind (J.member name s) J.to_float)
    with
    | Some v -> v
    | None -> Alcotest.failf "%s %s missing from the (stats) answer" section name
  in
  List.iter
    (fun name ->
      if value "counters" name <= 0. then
        Alcotest.failf "counter %s never fired on a real path" name)
    [ (* the served commit path *)
      "engine.commits"; "session.rebases"; "journal.appends"; "recovery.opens";
      (* the session-commit persist path *)
      "session.commits"; "journal.rotations"; "journal.torn_repairs";
      (* resilience: a retried write fault, a shed commit, and a breaker
         trip/reject/probe/close cycle *)
      "resilience.retries"; "resilience.shed";
      "breaker.trips"; "breaker.rejections"; "breaker.probes";
      "breaker.closes";
      (* the server's cache: cold builds, warm hits, patches, skips;
         promotion invalidates the follower's *)
      "cache.misses"; "cache.hits"; "cache.patched"; "cache.skipped";
      "cache.invalidated";
      (* the followers *)
      "replica.refetches"; "replica.promotions"; "replica.applied_records";
      "replica.quarantines";
      (* push shipping and quorum acks over a fault-injected link *)
      "shipper.push.subscriptions"; "shipper.push.pushed_bytes";
      "shipper.push.acks"; "shipper.push.frames";
      "server.replication.acks"; "server.replication.quorum_commits";
      "server.replication.under_replicated"; "server.replication.evictions";
      "server.replication.readmissions" ];
  Alcotest.(check (float 1e-9)) "the promoted follower's epoch" 1.
    (value "gauges" "replica.epoch");
  (* The scraped server's appender counts the files it opened. *)
  Alcotest.(check (float 1e-9)) "recovery.journal_bytes is the journal's length"
    journal_bytes (value "gauges" "recovery.journal_bytes");
  Alcotest.(check (float 1e-9)) "recovery.snapshot_bytes is the snapshot's length"
    snapshot_bytes (value "gauges" "recovery.snapshot_bytes")

let test_real_paths_trace () =
  fresh ();
  let spans = collect_spans () in
  let dir = temp_dir "obs-trace" and pdir = temp_dir "obs-trace-persist" in
  Test_server.make_bench_store dir 2;
  Test_replica.commit dir "A-";
  (* The server runs in a sibling domain and the client emits no spans,
     so only the server writes to the sink. *)
  let (), _ =
    Test_server.with_server dir (fun sock ->
        let c = Test_server.connect sock and c2 = Test_server.connect sock in
        reads_and_rebase c c2 ~collect:(fun c ->
            ignore (check_ok_e (C.recv_commit_ack c)));
        C.close c;
        C.close c2)
  in
  persist_traffic pdir;
  let names = List.sort_uniq String.compare (List.map (fun s -> s.T.name) (spans ())) in
  rm_rf dir;
  rm_rf pdir;
  List.iter
    (fun expected ->
      if not (List.mem expected names) then
        Alcotest.failf "span %s not produced by a real path" expected)
    [ "engine.stage"; "engine.translate"; "engine.commit_group";
      "engine.global_check"; "session.commit"; "session.rebase";
      "journal.append"; "journal.rotate"; "recovery.open_store";
      "recovery.persist"; "cache.warm"; "cache.apply_delta"; "cache.patch" ];
  (* One taxonomy: every span is a region whose histogram <name>_ns
     recorded it. *)
  let histograms = M.all () in
  List.iter
    (fun name ->
      match List.assoc_opt (name ^ "_ns") histograms with
      | Some (M.Histogram_m h) when M.Histogram.count h >= 1 -> ()
      | Some (M.Histogram_m _) -> Alcotest.failf "span %s: histogram %s_ns is empty" name name
      | _ -> Alcotest.failf "span %s has no histogram %s_ns" name name)
    names

(* --- the bench-regression gate ------------------------------------------ *)

let bench_doc groups =
  J.to_string
    (J.Obj
       [ "quick", J.Bool true;
         "groups",
         J.Arr
           (List.map
              (fun (name, results) ->
                J.Obj
                  [ "group", J.Str name;
                    "results",
                    J.Arr
                      (List.map
                         (fun (n, ns) ->
                           J.Obj
                             [ "name", J.Str n;
                               "ns_per_op",
                               (match ns with
                               | Some v -> J.Num v
                               | None -> J.Null) ])
                         results) ])
              groups) ])

let baseline_doc =
  bench_doc
    [ "e9",
      [ "fast", Some 100.; "mid", Some 200.; "slow", Some 400.;
        "broken", None ];
      "e10", [ "a", Some 1000.; "b", Some 3000. ] ]

let parse_groups doc =
  match Bench_gate.parse doc with
  | Ok gs -> gs
  | Error e -> Alcotest.failf "gate parse failed: %s" e

let test_gate_parse_and_median () =
  let groups = parse_groups baseline_doc in
  Alcotest.(check int) "two groups" 2 (List.length groups);
  let e9 = List.hd groups in
  (* null measurements are dropped, not treated as zero *)
  Alcotest.(check int) "null result dropped" 3 (List.length e9.Bench_gate.results);
  Alcotest.(check (option (float 1e-6))) "odd-arity median" (Some 200.)
    (Bench_gate.median e9);
  Alcotest.(check (option (float 1e-6))) "even-arity median" (Some 2000.)
    (Bench_gate.median (List.nth groups 1));
  Alcotest.(check (option (float 1e-6))) "empty group has no median" None
    (Bench_gate.median { Bench_gate.name = "x"; results = [] })

let test_gate_passes_on_baseline () =
  let baseline = parse_groups baseline_doc in
  let verdicts = Bench_gate.compare ~threshold:2.5 ~baseline baseline in
  Alcotest.(check bool) "self-comparison passes" false
    (Bench_gate.failed verdicts);
  (* mild noise within the threshold also passes *)
  let noisy =
    parse_groups
      (bench_doc
         [ "e9", [ "fast", Some 180.; "mid", Some 390.; "slow", Some 700. ];
           "e10", [ "a", Some 1900.; "b", Some 5600. ] ])
  in
  Alcotest.(check bool) "2x noise passes a 2.5x gate" false
    (Bench_gate.failed (Bench_gate.compare ~threshold:2.5 ~baseline noisy))

let test_gate_fails_on_injected_slowdown () =
  let baseline = parse_groups baseline_doc in
  (* the acceptance scenario: every e9 measurement 10x slower *)
  let slowed =
    parse_groups
      (bench_doc
         [ "e9", [ "fast", Some 1000.; "mid", Some 2000.; "slow", Some 4000. ];
           "e10", [ "a", Some 1000.; "b", Some 3000. ] ])
  in
  let verdicts = Bench_gate.compare ~threshold:2.5 ~baseline slowed in
  Alcotest.(check bool) "10x slowdown fails" true (Bench_gate.failed verdicts);
  let v =
    List.find (fun v -> v.Bench_gate.group_name = "e9") verdicts
  in
  Alcotest.(check bool) "the slowed group is the one flagged" true
    (v.Bench_gate.status = Bench_gate.Regressed);
  Alcotest.(check (option (float 1e-6))) "ratio reported" (Some 10.)
    v.Bench_gate.ratio;
  Alcotest.(check bool) "report names the culprit" true
    (Relational.Strutil.contains ~sub:"e9"
       (Bench_gate.report ~threshold:2.5 verdicts))

let test_gate_missing_and_new_groups () =
  let baseline = parse_groups baseline_doc in
  let missing =
    parse_groups (bench_doc [ "e10", [ "a", Some 1000.; "b", Some 3000. ] ])
  in
  let verdicts = Bench_gate.compare ~threshold:2.5 ~baseline missing in
  Alcotest.(check bool) "a dropped group fails the gate" true
    (Bench_gate.failed verdicts);
  let e9 = List.find (fun v -> v.Bench_gate.group_name = "e9") verdicts in
  Alcotest.(check bool) "flagged as missing" true
    (e9.Bench_gate.status = Bench_gate.Missing);
  let extra =
    parse_groups
      (bench_doc
         [ "e9", [ "fast", Some 100.; "mid", Some 200.; "slow", Some 400. ];
           "e10", [ "a", Some 1000.; "b", Some 3000. ];
           "e12", [ "fresh", Some 50. ] ])
  in
  let verdicts = Bench_gate.compare ~threshold:2.5 ~baseline extra in
  Alcotest.(check bool) "a new group does not fail the gate" false
    (Bench_gate.failed verdicts);
  let e12 = List.find (fun v -> v.Bench_gate.group_name = "e12") verdicts in
  Alcotest.(check bool) "flagged as new" true
    (e12.Bench_gate.status = Bench_gate.New)

let test_gate_rejects_malformed () =
  (match Bench_gate.parse "{\"no\": \"groups\"}" with
  | Ok _ -> Alcotest.fail "document without groups must not parse"
  | Error _ -> ());
  match Bench_gate.parse "not json at all" with
  | Ok _ -> Alcotest.fail "non-json must not parse"
  | Error _ -> ()

let suite =
  [
    Alcotest.test_case "counters and gauges" `Quick test_counter_gauge;
    Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
    QCheck_alcotest.to_alcotest prop_quantile_within_bound;
    Alcotest.test_case "time records on raise" `Quick
      test_time_records_on_raise;
    Alcotest.test_case "two domains hammer the registry" `Quick
      test_domain_safety_hammer;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span finishes on raise" `Quick
      test_span_finishes_on_raise;
    Alcotest.test_case "span lines well-formed" `Quick
      test_span_lines_well_formed;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_number_roundtrip;
    Alcotest.test_case "real paths fill the (stats) scrape" `Quick
      test_real_paths_and_json;
    Alcotest.test_case "real paths trace every layer" `Quick
      test_real_paths_trace;
    Alcotest.test_case "gate parse + median" `Quick test_gate_parse_and_median;
    Alcotest.test_case "gate passes on baseline" `Quick
      test_gate_passes_on_baseline;
    Alcotest.test_case "gate fails on 10x slowdown" `Quick
      test_gate_fails_on_injected_slowdown;
    Alcotest.test_case "gate: missing and new groups" `Quick
      test_gate_missing_and_new_groups;
    Alcotest.test_case "gate rejects malformed documents" `Quick
      test_gate_rejects_malformed;
  ]
