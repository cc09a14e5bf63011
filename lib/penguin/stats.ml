let ( let* ) = Result.bind

(* Typed-error results join the exercise's string-error chain at the
   boundary. *)
let str_err r = Result.map_error Error.to_string r

(* Alternate between two values so every engine update is a real delta
   (an idempotent edit stages nothing: Upql drops no-op requests). *)
let flip_stmt i =
  if i mod 2 = 0 then "set GRADES[pid = 1] grade = 'A+' where course_id = 'CS345'"
  else "set GRADES[pid = 1] grade = 'B+' where course_id = 'CS345'"

(* One statement, one session, one commit. *)
let commit_stmt ws stmt =
  let* sess = str_err (Session.queue_stmt (Session.begin_ ws) "omega" stmt) in
  let* ws, _stats = str_err (Session.commit ws sess) in
  Ok ws

let engine_traffic ~updates ws =
  let rec go i ws =
    if i >= updates then Ok ws
    else
      let* ws = commit_stmt ws (flip_stmt i) in
      go (i + 1) ws
  in
  go 0 ws

let session_traffic ws =
  (* A clean two-update session commit. [updates] is even, so the
     engine traffic left the grade at 'B+' and [flip_stmt 0] is a real
     edit here (Upql drops no-op requests before they are staged). *)
  let sess = Session.begin_ ws in
  let* sess = str_err (Session.queue_stmt sess "omega" (flip_stmt 0)) in
  let* sess =
    str_err
      (Session.queue_stmt sess "omega" "set units = 4 where course_id = 'CS345'")
  in
  let* ws, _stats = str_err (Session.commit ws sess) in
  (* ...and a stale session: staged here, overtaken by a concurrent
     commit to the same tuple, so commit must detect the overlap and
     rebase (OCC retry). *)
  let sess = Session.begin_ ws in
  let* sess = str_err (Session.queue_stmt sess "omega" (flip_stmt 1)) in
  let* ws' =
    commit_stmt ws "set GRADES[pid = 1] grade = 'C' where course_id = 'CS345'"
  in
  let* ws', _stats = str_err (Session.commit ws' sess) in
  Ok ws'

let durability_traffic ws =
  let dir = Filename.get_temp_dir_name () in
  let store =
    Filename.concat dir (Fmt.str "penguin-stats-%d.pgn" (Unix.getpid ()))
  in
  let cleanup () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ store; Journal.journal_path store; Fsio.lock_path store ]
  in
  let result =
    let* () = str_err (Store.save_file ws store) in
    (* Two commit/persist rounds; the second crosses rotate_threshold
       and folds the journal into a fresh snapshot. *)
    let rec round i ws =
      if i >= 2 then Ok ws
      else
        let since = Workspace.version ws in
        let* ws = commit_stmt ws (flip_stmt i) in
        let* _persisted =
          str_err (Recovery.persist ~rotate_threshold:2 ~store ~since ws)
        in
        let* ws, _report = str_err (Recovery.open_store store) in
        round (i + 1) ws
    in
    let* _ws = round 0 ws in
    (* A torn tail: garbage after the last full record, discarded on
       read and truncated away by a repairing open. *)
    let* () =
      str_err
        (Fsio.default.Fsio.write ~path:(Journal.journal_path store)
           ~append:true "torn")
    in
    let* _ws, report = str_err (Recovery.open_store ~repair:true store) in
    if report.Recovery.torn_bytes = 0 then
      Error "stats exercise: torn tail was not detected"
    else Ok ()
  in
  cleanup ();
  result

(* Drive the materialized view-object cache through every outcome its
   counters name: a cold build (miss), a warm read (hit), an
   incremental patch from a session commit, a skip (a delta disjoint
   from a cached object's dependencies), and a barrier invalidation. *)
let cache_traffic ws =
  let cache = Workspace.attach_cache ws in
  (* A flat DEPARTMENT object rides along: its dependency set is
     disjoint from the GRADES edit below, so the patch skips it. *)
  Viewobject.Cache.register cache
    (Viewobject.Definition.make_exn ws.Workspace.graph ~name:"departments"
       ~pivot:"DEPARTMENT"
       ~root:
         (Viewobject.Definition.node ~label:"DEPARTMENT"
            ~relation:"DEPARTMENT"
            ~attrs:[ "dept_name"; "building"; "budget" ]
            ~path:[] ~children:[]));
  let* cold = Viewobject.Cache.instances cache "omega" in
  Viewobject.Cache.warm cache;
  let* warm = Viewobject.Cache.instances cache "omega" in
  let* () =
    if List.length cold <> List.length warm then
      Error "stats exercise: cache warm read diverged from the cold one"
    else Ok ()
  in
  (* One committed update through a session with the cache attached:
     sync patches the touched omega entry and skips the DEPARTMENT
     object. [session_traffic] left the grade at 'B+', so the even
     statement is a real edit. *)
  let sess = Session.begin_ ws in
  let* sess = str_err (Session.queue_stmt sess "omega" (flip_stmt 0)) in
  let* ws, _stats = str_err (Session.commit ~cache ws sess) in
  (* ...and flip it back, so the fixture leaves this stage as it
     entered (the durability stage's edits stay real). *)
  let sess = Session.begin_ ws in
  let* sess = str_err (Session.queue_stmt sess "omega" (flip_stmt 1)) in
  let* ws, _stats = str_err (Session.commit ~cache ws sess) in
  let fresh = Workspace.instances ws "omega" in
  let* cached = Viewobject.Cache.instances cache "omega" in
  let* () =
    match fresh with
    | Ok fresh when List.equal Viewobject.Instance.equal fresh cached -> Ok ()
    | Ok _ -> Error "stats exercise: patched cache diverged from instantiate"
    | Error e -> Error e
  in
  (* A barrier (wholesale database swap) hides the history: the cache
     must invalidate rather than trust its entries. The swapped-in
     value is logically the same state, which is exactly why the cache
     cannot tell — only the barrier speaks. *)
  let scratch =
    Relational.Schema.make_exn ~name:"STATS_SCRATCH"
      ~attributes:[ Relational.Attribute.int "id" ]
      ~key:[ "id" ]
  in
  let* swapped =
    Result.map_error Relational.Database.error_to_string
      (Relational.Database.drop_relation
         (Relational.Database.create_relation_exn ws.Workspace.db scratch)
         "STATS_SCRATCH")
  in
  let ws = Workspace.with_db ws swapped in
  Workspace.sync_cache ws cache;
  Ok ws

(* Drive the resilience layer so its counters are never zero in the
   stats output: a transient fault retried through a real (injected)
   I/O path, an admission-control shed, and a full breaker cycle —
   trip on non-transient faults, reject while open, probe and close
   after the cooldown. The instant clock makes the backoffs and the
   cooldown free. *)
let resilience_traffic () =
  let clock = Resilience.Clock.instant () in
  (* Retry over injected transient write faults (seeded, deterministic). *)
  let faulty =
    Fsio.Fault.inject ~seed:7 ~rate:0.5 ~kind:Fsio.Fault.Transient
      ~ops:[ `Write ] Fsio.default
  in
  let dir = Filename.get_temp_dir_name () in
  let scratch =
    Filename.concat dir (Fmt.str "penguin-stats-retry-%d.tmp" (Unix.getpid ()))
  in
  let* () =
    str_err
      (Resilience.retry ~policy:{ Resilience.Policy.default with max_attempts = 16 }
         ~clock ~label:"stats scratch write" (fun () ->
           faulty.Fsio.write ~path:scratch ~append:false "resilient"))
  in
  (try Sys.remove scratch with Sys_error _ -> ());
  (* Admission control shedding. *)
  let lim = Resilience.Limiter.create ~label:"stats" ~max_in_flight:1 () in
  let* () =
    str_err
      (Resilience.Limiter.with_slot lim (fun () ->
           match Resilience.Limiter.with_slot lim (fun () -> Ok ()) with
           | Error (Error.Busy _) -> Ok ()
           | Ok () -> Error (Error.invalid "stats: limiter failed to shed")
           | Error e -> Error e))
  in
  (* Breaker: trip on non-transient faults, reject, probe, close. *)
  let b =
    Resilience.Breaker.create ~label:"stats" ~threshold:2 ~cooldown_ns:1e6
      ~clock ()
  in
  let hard () =
    Error (Error.io ~op:Error.Sync ~path:"<stats>" "synthetic disk fault")
  in
  let (_ : (unit, Error.t) result) = Resilience.Breaker.protect b hard in
  let (_ : (unit, Error.t) result) = Resilience.Breaker.protect b hard in
  let* () =
    match Resilience.Breaker.protect b (fun () -> Ok ()) with
    | Error (Error.Busy _) -> Ok ()  (* open: degraded read-only *)
    | Ok () -> Error "stats: breaker failed to trip"
    | Error e -> Error (Error.to_string e)
  in
  clock.Resilience.Clock.sleep_ns 2e6;
  (* Past the cooldown the next write is the half-open probe. *)
  str_err (Resilience.Breaker.protect b (fun () -> Ok ()))

(* Drive the replication layer end to end: a leader store with a
   couple of persisted commits, a file-feed follower that catches up
   and serves a cache-warm read, a corrupt shipped record that must be
   refetched and quarantined (not wedge the follower), and finally a
   promotion — touching replica.lag_records, replica.epoch,
   replica.refetches and replica.promotions. *)
let replica_traffic ws =
  let dir = Filename.get_temp_dir_name () in
  let pid = Unix.getpid () in
  let store = Filename.concat dir (Fmt.str "penguin-stats-leader-%d.pgn" pid) in
  let target =
    Filename.concat dir (Fmt.str "penguin-stats-follower-%d.pgn" pid)
  in
  let cleanup () =
    List.iter
      (fun s ->
        List.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          [ s; Journal.journal_path s; Fsio.lock_path s ])
      [ store; target ]
  in
  cleanup ();
  let result =
    let* () = str_err (Store.save_file ws store) in
    (* Two alternating edits: whatever the grade is now, at least one
       is a real delta, so the journal ships at least one record. *)
    let rec commit_rounds i lws =
      if i >= 2 then Ok lws
      else
        let since = Workspace.version lws in
        let* lws = commit_stmt lws (flip_stmt i) in
        let* _persisted = str_err (Recovery.persist ~store ~since lws) in
        commit_rounds (i + 1) lws
    in
    let* lws = commit_rounds 0 ws in
    let* r =
      str_err
        (Replica.create ~refetch_limit:2 ~feed:(Replica.file_feed store)
           ~target ())
    in
    let* _progress = str_err (Replica.poll_until_idle r) in
    let* () =
      if Replica.position r <> Workspace.version lws then
        Error "stats exercise: follower did not catch up to the leader"
      else Ok ()
    in
    let* follower_read = Replica.instances r "omega" in
    let* () =
      if follower_read = [] then
        Error "stats exercise: follower served no instances"
      else Ok ()
    in
    (* A checksum-valid frame whose payload is garbage: the follower
       must refetch it, then quarantine and keep serving — never wedge
       or re-journal it. *)
    let* () =
      str_err
        (Fsio.default.Fsio.write ~path:(Journal.journal_path store)
           ~append:true
           (Journal.frame "(not a journal record)"))
    in
    let* _ = str_err (Replica.poll r) in
    let* _ = str_err (Replica.poll r) in
    let* () =
      match Replica.status r with
      | Degraded _ -> Ok ()
      | Following | Promoted ->
          Error "stats exercise: corrupt shipped record was not quarantined"
    in
    let* _ws, epoch = str_err (Replica.promote r) in
    if epoch < 1 then Error "stats exercise: promotion did not bump the epoch"
    else Ok ()
  in
  cleanup ();
  result

(* Drive the push/quorum replication path end to end so the
   server.replication.*, shipper.push.* and netio.injected_faults
   counters are never zero in the stats output: a quorum server gating
   client acks on a push follower whose link draws an injected
   (harmless) delay on every call — a clean gated ack, a stalled window
   resolving by degrade with the laggard evicted, and the re-admission
   that restores clean acks. *)
let quorum_traffic () =
  let dir = Filename.get_temp_dir_name () in
  let pid = Unix.getpid () in
  let mk name = Filename.concat dir (Fmt.str "penguin-stats-%s-%d" name pid) in
  let store = mk "qsrv.pgn" and target = mk "qsrvf.pgn" in
  let sock = mk "qsrv.sock" in
  let cleanup () =
    List.iter
      (fun s ->
        List.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          [ s; Journal.journal_path s; Fsio.lock_path s ])
      [ store; target ];
    try Sys.remove sock with Sys_error _ -> ()
  in
  cleanup ();
  let await_sock () =
    let rec go n =
      if Sys.file_exists sock then Ok ()
      else if n = 0 then
        Error (Fmt.str "stats exercise: socket %s never appeared" sock)
      else begin
        Unix.sleepf 0.005;
        go (n - 1)
      end
    in
    go 1000
  in
  let drive r p =
    let rec go n =
      if n > 2000 then Error "stats exercise: push never delivered a record"
      else
        let* prog = str_err (Replica.push_poll ~timeout:0.02 r p) in
        if prog.Replica.records = 0 then go (n + 1) else Ok ()
    in
    go 0
  in
  (* server.replication.{acks,quorum_commits,followers} on the clean ack,
     {under_replicated,evictions} on the stalled window, {readmissions}
     when the laggard catches back up; shipper.push.{subscriptions,
     pushed_bytes,acks,frames} from the subscription itself. *)
  let* () = str_err (Store.save_file (University.workspace ()) store) in
  let config =
    {
      Server.default_config with
      Server.sync_replicas = 1;
      repl_deadline_ns = 60e6;
    }
  in
  let srv = Domain.spawn (fun () -> Server.serve ~config ~store ~sock ()) in
  let body () =
    let* () = await_sock () in
    let* r =
      str_err (Replica.create ~feed:(Shipper.feed ~sock) ~target ())
    in
    let* _ = str_err (Replica.poll_until_idle r) in
    let net =
      Netio.Fault.inject ~seed:5 ~rate:1.0 ~kind:(Netio.Fault.Delay 1e-4)
        Netio.default_net
    in
    let* p = str_err (Replica.subscribe ~net r ~sock) in
    let* c = str_err (Client.connect ~sock) in
    let commit i ~driven =
      let* _v = str_err (Client.begin_ c) in
      let* _n = str_err (Client.queue c ~object_name:"omega" (flip_stmt i)) in
      let* () = str_err (Client.send_commit c) in
      let* () = if driven then drive r p else Ok () in
      str_err (Client.recv_commit_ack c)
    in
    let* ack = commit 0 ~driven:true in
    let* () =
      if ack.Client.under_replicated then
        Error "stats exercise: quorum ack degraded with a live follower"
      else Ok ()
    in
    let* ack = commit 1 ~driven:false in
    let* () =
      if not ack.Client.under_replicated then
        Error "stats exercise: stalled window did not degrade"
      else Ok ()
    in
    let* () = drive r p in
    let* ack = commit 0 ~driven:true in
    let* () =
      if ack.Client.under_replicated then
        Error "stats exercise: re-admitted follower did not restore quorum"
      else Ok ()
    in
    Replica.push_close p;
    Client.close c;
    Ok ()
  in
  let result = body () in
  (match Client.connect ~sock with
  | Ok c ->
      ignore (Client.shutdown c);
      Client.close c
  | Error _ -> ());
  let (_ : (Server.stats, Error.t) result) = Domain.join srv in
  cleanup ();
  result

let exercise ?(updates = 8) () =
  Obs.Trace.with_span "stats.exercise" @@ fun () ->
  let ws = University.workspace () in
  let* ws = engine_traffic ~updates ws in
  let* ws = session_traffic ws in
  let* ws = cache_traffic ws in
  let* () = durability_traffic ws in
  (* quorum first: its epoch-0 followers would otherwise clobber the
     replica.epoch gauge that replica_traffic's promotion sets to 1 *)
  let* () = quorum_traffic () in
  let* () = replica_traffic ws in
  let* () = resilience_traffic () in
  match Workspace.check_consistency ws with
  | Ok () -> Ok ()
  | Error e -> Error (Fmt.str "stats exercise left the fixture broken: %s" e)

let table () = Fmt.str "%a" Obs.Metrics.pp_table ()
let json () = Obs.Metrics.to_json ()
