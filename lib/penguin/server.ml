open Relational

let src = Logs.Src.create "penguin.server" ~doc:"network serving front end"

module Log = (val Logs.src_log src : Logs.LOG)

let ( let* ) = Result.bind

module M = Obs.Metrics

let m_requests = M.counter ~help:"server requests answered" "server.requests"

let m_request_errors =
  M.counter ~help:"server requests answered with a typed error"
    "server.request_errors"

let m_connections =
  M.counter ~help:"client connections accepted" "server.connections"

let m_disconnects =
  M.counter ~help:"client connections closed or dropped" "server.disconnects"

let m_frame_errors =
  M.counter ~help:"connections dropped on a corrupt frame"
    "server.frame_errors"

let m_commits = M.counter ~help:"commit requests acked durable" "server.commits"

let m_updates =
  M.counter ~help:"staged updates committed through the server"
    "server.updates"

let m_conflicts =
  M.counter
    ~help:"parked commits rejected as window conflicts or validation culprits"
    "server.conflicts"

let m_dropped_parked =
  M.counter ~help:"parked commits dropped by a client disconnect"
    "server.dropped_parked"

let m_windows = M.counter ~help:"flush windows persisted" "server.windows"

let m_window_commits =
  M.histogram
    ~help:"parked commits batched per persisted flush window"
    ~bounds:[ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512. ]
    "server.window_commits"

let m_commit_ns =
  M.histogram ~help:"commit request latency, park to durable ack"
    "server.commit_ns"

let m_request_ns =
  M.histogram ~help:"request handling latency (excluding parked wait)"
    "server.request_ns"

let m_oql_ns = M.histogram ~help:"oql read latency" "server.oql_ns"

let m_flush_ns =
  M.histogram ~help:"whole flush: restage, merged commit, journal fsync"
    "server.flush_ns"

let m_repl_acks =
  M.counter ~help:"follower durable-position acks received"
    "server.replication.acks"

let m_repl_quorum =
  M.counter ~help:"windows released by follower quorum"
    "server.replication.quorum_commits"

let m_repl_under =
  M.counter
    ~help:"windows acked under-replicated after the replication deadline"
    "server.replication.under_replicated"

let m_repl_deadline =
  M.counter
    ~help:"commits failed with deadline_exceeded under --on-lag fail"
    "server.replication.deadline_failures"

let m_repl_evictions =
  M.counter ~help:"followers evicted from the quorum set for lagging"
    "server.replication.evictions"

let m_repl_readmissions =
  M.counter ~help:"evicted followers re-admitted after catching up"
    "server.replication.readmissions"

let m_repl_followers =
  M.gauge ~help:"push subscribers currently connected"
    "server.replication.followers"

type on_lag = Degrade | Fail

type config = {
  flush_window : int;
  flush_interval_ns : float;
  eager_flush : bool;
  max_parked : int;
  max_queued : int;
  sync_replicas : int;
      (** acks park until this many followers confirm the window
          durable; [0] = fsync-only acks (no replication wait) *)
  repl_deadline_ns : float;
      (** per-window bound on that wait before [on_lag] applies *)
  on_lag : on_lag;
      (** what a deadline does to the window's parked acks: [Degrade]
          acks with [(warning under_replicated)], [Fail] sheds with
          {!Error.Deadline_exceeded} *)
}

let default_config =
  {
    flush_window = 64;
    flush_interval_ns = 10e6;
    eager_flush = true;
    max_parked = 256;
    max_queued = 128;
    sync_replicas = 0;
    repl_deadline_ns = 50e6;
    on_lag = Degrade;
  }

type stats = {
  requests : int;
  commits : int;
  windows : int;
}

(* A connection that sent [(subscribe OFF)] becomes a follower: the
   feed protocol ({!Shipper.sub}) relays journal bytes out and takes
   its [(ack OFF)] frames in — the positions quorum release reads. On
   top sits quorum health: a follower that misses a window's
   replication deadline is evicted ([r_healthy <- false], its acks no
   longer count) and re-admitted only when its acked position reaches
   the journal's current end. *)
type repl = {
  sub : Shipper.sub;
  mutable r_healthy : bool;
}

type conn = {
  fd : Unix.file_descr;
  id : int;
  stream : Netio.Stream.t;
  mutable snapshot : Workspace.t option;  (** workspace at [(begin)] *)
  mutable sess : Session.t option;
  mutable parked : bool;
  mutable alive : bool;
  mutable repl : repl option;  (** Some = this connection is a follower *)
}

type parked = {
  p_conn : conn;
  p_sess : Session.t;
  p_t0 : float;
}

(* A flushed window whose client acks are parked on replication: local
   fsync is done (the commits are durable here), but with
   [sync_replicas = K] the acks wait until K healthy followers confirm
   positions at or past [w_end] — or until [w_deadline], when the
   [on_lag] policy resolves them. *)
type pending = {
  w_end : int;  (** journal byte end offset of this window's append *)
  mutable w_deadline : float;  (** forced to [neg_infinity] by rotation *)
  mutable w_acks : (parked * int list) list;
}

(* Re-derive a parked session's staged updates against the current
   committed state. A session whose footprints are clean keeps its
   staged values verbatim (OCC: non-overlapping deltas commute); one
   that diverged rebases by re-translating its queued requests, and a
   request the new state rejects is a concurrency casualty — typed
   [Conflict], retryable from a fresh session. *)
let restage ws p =
  let s = p.p_sess in
  match Session.divergence ws s with
  | Session.Clean -> Ok (Session.staged s)
  | Session.Conflicting _ | Session.Unknown_history ->
      let base_version = Workspace.version ws in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (name, req) :: rest -> (
            match
              (Workspace.find_object ws name, Workspace.translator_of ws name)
            with
            | Error e, _ | _, Error e -> Error (Error.invalid e)
            | Ok vo, Ok spec -> (
                match
                  Vo_core.Engine.stage ~base_version ws.Workspace.graph
                    ws.Workspace.db vo spec req
                with
                | Error se ->
                    Error
                      (Error.conflict
                         (Fmt.str
                            "rebase against v%d: %s; begin a fresh session \
                             and retry"
                            base_version
                            (Vo_core.Engine.stage_error_reason se)))
                | Ok st -> go (st :: acc) rest))
      in
      go [] (Session.requests s)

let serve ?(io = Fsio.default) ?(net = Netio.default_net)
    ?(config = default_config) ?limiter ?breaker ~store ~sock () =
  let limiter =
    match limiter with
    | Some l -> l
    | None ->
        Resilience.Limiter.create ~label:"server"
          ~max_in_flight:config.max_parked ()
  in
  let breaker =
    match breaker with
    | Some b -> b
    | None -> Resilience.Breaker.create ~label:("server:" ^ store) ()
  in
  (* Writes to a connection the client already closed must surface as
     EPIPE (handled per-connection), not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  M.enable ();
  (* One writer per store: the server owns the cross-process lock for
     its whole lifetime, so CLI commits wait (or hit their deadline)
     instead of racing the flush loop's reopen-free persists. *)
  Fsio.with_lock store @@ fun () ->
  let* ws0, report = Recovery.open_store ~io ~repair:true store in
  let epoch = report.Recovery.epoch in
  (* The server is the sole writer for its lifetime (it holds the store
     lock above), so it validates the journal once and appends
     incrementally — {!Recovery.persist}'s per-call replay would make
     every flush pay for the whole journal. *)
  let* appender =
    Recovery.Appender.create ~io ~breaker ~expect_epoch:epoch ~store ws0
  in
  let ws = ref ws0 in
  let cache = Workspace.attach_cache !ws in
  let* srv = Netio.listen ~sock in
  Log.info (fun m ->
      m "serving %s on %s (window %d, interval %.1f ms)" store sock
        config.flush_window
        (config.flush_interval_ns /. 1e6));
  let feed = Replica.file_feed ~io store in
  let conns : conn list ref = ref [] in
  let window : parked list ref = ref [] (* newest first *) in
  let pendings : pending list ref = ref [] (* oldest first *) in
  let stop = ref false in
  let n_requests = ref 0 and n_commits = ref 0 and n_windows = ref 0 in
  let next_id = ref 0 in
  let followers () =
    List.filter_map (fun c -> if c.alive then c.repl else None) !conns
  in
  let kill conn =
    if conn.alive then begin
      conn.alive <- false;
      (try Unix.close conn.fd with Unix.Unix_error _ -> ());
      if conn.parked then begin
        (* The client vanished while its commit was parked: drop the
           commit from the window (or its pending quorum wait) — the
           rest of the batch still lands — and return its admission
           slot. *)
        window := List.filter (fun p -> p.p_conn != conn) !window;
        List.iter
          (fun w ->
            w.w_acks <- List.filter (fun (p, _) -> p.p_conn != conn) w.w_acks)
          !pendings;
        Resilience.Limiter.release limiter;
        conn.parked <- false;
        M.Counter.incr m_dropped_parked;
        Log.info (fun m ->
            m "conn %d: disconnected while parked; commit dropped" conn.id)
      end;
      if conn.repl <> None then begin
        conn.repl <- None;
        M.Gauge.set m_repl_followers (float_of_int (List.length (followers ())))
      end;
      M.Counter.incr m_disconnects
    end
  in
  let send conn payloads =
    if conn.alive then
      try
        net.Netio.net_send conn.fd
          (String.concat "" (List.map Journal.frame payloads))
      with Unix.Unix_error _ -> kill conn
  in
  let answer_error conn e =
    M.Counter.incr m_request_errors;
    send conn
      [
        Sexp.to_string
          (Sexp.List
             [
               Sexp.Atom "error";
               Sexp.Atom (Error.kind e);
               Sexp.Atom (string_of_bool (Error.retryable e));
               Sexp.Atom (Error.to_string e);
             ]);
      ]
  in
  (* --- quorum replication tracker ------------------------------------ *)
  let ack_commit ?(warn = false) (p, versions) =
    Resilience.Limiter.release limiter;
    p.p_conn.parked <- false;
    incr n_commits;
    M.Counter.incr m_commits;
    M.Counter.add m_updates (List.length versions);
    M.Histogram.observe m_commit_ns (M.now_ns () -. p.p_t0);
    send p.p_conn
      [
        Fmt.str "(ok (committed %d) (versions%s)%s)" (List.length versions)
          (String.concat ""
             (List.map (fun v -> " " ^ string_of_int v) versions))
          (if warn then " (warning under_replicated)" else "");
      ]
  in
  let reject_parked p e =
    Resilience.Limiter.release limiter;
    p.p_conn.parked <- false;
    answer_error p.p_conn e
  in
  let quorum_reached w =
    List.length
      (List.filter
         (fun r -> r.r_healthy && Shipper.acked r.sub >= w.w_end)
         (followers ()))
    >= config.sync_replicas
  in
  (* Resolve every parked window whose quorum arrived or whose
     replication deadline passed. A deadline first evicts the laggards
     from the quorum set — their acks stop counting until they catch
     back up to the journal's end — then applies the lag policy to the
     window's parked client acks. *)
  let check_pendings () =
    if !pendings <> [] then begin
      let now = M.now_ns () in
      pendings :=
        List.filter
          (fun w ->
            if quorum_reached w then begin
              M.Counter.incr m_repl_quorum;
              List.iter ack_commit w.w_acks;
              false
            end
            else if now >= w.w_deadline then begin
              List.iter
                (fun r ->
                  if r.r_healthy && Shipper.acked r.sub < w.w_end then begin
                    r.r_healthy <- false;
                    M.Counter.incr m_repl_evictions
                  end)
                (followers ());
              (match config.on_lag with
              | Degrade ->
                  M.Counter.incr m_repl_under;
                  Log.warn (fun m ->
                      m
                        "window at offset %d under-replicated after %.0f ms; \
                         acking degraded"
                        w.w_end
                        (config.repl_deadline_ns /. 1e6));
                  List.iter (ack_commit ~warn:true) w.w_acks
              | Fail ->
                  M.Counter.incr m_repl_deadline;
                  List.iter
                    (fun (p, _) ->
                      reject_parked p
                        (Error.deadline_exceeded
                           (Fmt.str
                              "commit durable locally but not confirmed by %d \
                               replica(s) within %.0f ms"
                              config.sync_replicas
                              (config.repl_deadline_ns /. 1e6))))
                    w.w_acks);
              false
            end
            else true)
          !pendings
    end
  in
  (* Stream a flushed window's new journal bytes to every subscriber
     right away — push mode's point is that replication latency is the
     link, not a polling tick. A rotation voids every stream's byte
     offsets: the subscribers are dropped and re-find footing through
     the pull path. *)
  let push_subs ~rotated =
    List.iter
      (fun c ->
        match c.repl with
        | Some r when c.alive ->
            if rotated || not (Shipper.relay ~net feed r.sub) then kill c
        | _ -> ())
      !conns
  in
  (* --- the flush: one merged commit_group + one journal fsync -------- *)
  let persist_policy = { Resilience.Policy.default with max_attempts = 3 } in
  let flush reason =
    match List.rev !window with
    | [] -> ()
    | parked ->
        window := [];
        List.iter (fun p -> p.p_conn.parked <- false) parked;
        Obs.Trace.with_span "server.flush"
          ~tags:
            [ "reason", reason; "parked", string_of_int (List.length parked) ]
        @@ fun () ->
        M.time m_flush_ns @@ fun () ->
        let reject = reject_parked in
        let cur = !ws in
        let base = Workspace.version cur in
        (* 1. Restage every parked session against the committed state;
           failures are per-request culprits, not window failures. *)
        let candidates =
          List.filter_map
            (fun p ->
              match restage cur p with
              | Ok staged -> Some (p, staged)
              | Error e ->
                  M.Counter.incr m_conflicts;
                  reject p e;
                  None)
            parked
        in
        (* 2. Plan one conflict-free batch: a commit with any staged
           update outside the first group collides with an earlier
           parked commit in this window and is answered [Conflict]. *)
        let winners, losers =
          match Vo_core.Engine.plan_groups (List.concat_map snd candidates) with
          | [] | [ _ ] -> candidates, []
          | first :: _ ->
              List.partition
                (fun (_, staged) ->
                  List.for_all (fun st -> List.memq st first) staged)
                candidates
        in
        List.iter
          (fun (p, _) ->
            M.Counter.incr m_conflicts;
            reject p
              (Error.conflict
                 "commit conflicts with an earlier commit in the same flush \
                  window; begin a fresh session and retry"))
          losers;
        (* 3. One merged-delta commit_group; a validation culprit is
           ejected (typed error) and the rest retried. *)
        let rec commit_batch winners =
          match winners with
          | [] -> None
          | _ -> (
              let batch = List.concat_map snd winners in
              match
                Vo_core.Engine.commit_group cur.Workspace.graph
                  cur.Workspace.db batch
              with
              | Ok (db, _merged) -> Some (db, winners)
              | Error rejection -> (
                  let reason =
                    Vo_core.Engine.group_rejection_reason rejection
                  in
                  let culprit_index =
                    match rejection with
                    | Vo_core.Engine.Group_op_failed { index; _ } -> Some index
                    | Vo_core.Engine.Group_validation_failed { culprit; _ } ->
                        culprit
                    | Vo_core.Engine.Group_conflict { right; _ } -> Some right
                  in
                  let owner_of i =
                    let rec walk k = function
                      | [] -> None
                      | (p, staged) :: rest ->
                          let k' = k + List.length staged in
                          if i < k' then Some p else walk k' rest
                    in
                    walk 0 winners
                  in
                  match Option.bind culprit_index owner_of with
                  | None ->
                      (* No culprit nameable: fail the whole batch. *)
                      List.iter
                        (fun (p, _) -> reject p (Error.invalid reason))
                        winners;
                      None
                  | Some culprit ->
                      M.Counter.incr m_conflicts;
                      reject culprit
                        (Error.invalid
                           (Fmt.str "rejected by the window's validation: %s"
                              reason));
                      commit_batch
                        (List.filter (fun (p, _) -> p != culprit) winners)))
        in
        (match commit_batch winners with
        | None -> ()
        | Some (db, winners) ->
            (* 4. Append one commit-log entry per update, remembering
               each commit's versions for its ack. *)
            let log = ref cur.Workspace.log in
            let acks =
              List.map
                (fun (p, staged) ->
                  let versions =
                    List.map
                      (fun st ->
                        log :=
                          Commit_log.append !log
                            ~delta:st.Vo_core.Engine.delta
                            ~kind:
                              (Fmt.str "%s on %s"
                                 st.Vo_core.Engine.request_kind
                                 st.Vo_core.Engine.object_name);
                        Commit_log.version !log)
                      staged
                  in
                  p, versions)
                winners
            in
            let ws' = { cur with Workspace.db; log = !log } in
            (* 5. One journal append + one fsync for the whole window,
               breaker-guarded; transient disk faults retry briefly. *)
            match
              Resilience.retry ~policy:persist_policy ~label:"server.persist"
                (fun () -> Recovery.Appender.append appender ~since:base ws')
            with
            | Error e ->
                (* Not durable — nothing is acked, nothing published. *)
                Log.warn (fun m ->
                    m "flush of %d commit(s) failed to persist: %s"
                      (List.length acks) (Error.to_string e));
                List.iter
                  (fun (p, _) ->
                    reject p (Error.with_context "durable append failed" e))
                  acks
            | Ok persisted ->
                ws := ws';
                Workspace.sync_cache !ws cache;
                incr n_windows;
                M.Counter.incr m_windows;
                M.Histogram.observe m_window_commits
                  (float_of_int (List.length acks));
                push_subs ~rotated:persisted.Recovery.rotated;
                if persisted.Recovery.rotated then begin
                  (* The pre-rotation byte offsets the pendings wait on
                     can never be acked again; resolve them now per the
                     lag policy (their commits are in the snapshot the
                     followers resync from). *)
                  List.iter (fun w -> w.w_deadline <- neg_infinity) !pendings;
                  check_pendings ()
                end;
                if
                  config.sync_replicas > 0 && not persisted.Recovery.rotated
                then begin
                  (* Locally durable; the client acks park until K
                     followers confirm the window's end offset (or the
                     replication deadline resolves them). *)
                  List.iter (fun (p, _) -> p.p_conn.parked <- true) acks;
                  pendings :=
                    !pendings
                    @ [
                        {
                          w_end = Recovery.Appender.bytes appender;
                          w_deadline = M.now_ns () +. config.repl_deadline_ns;
                          w_acks = acks;
                        };
                      ];
                  check_pendings ()
                end
                else List.iter (fun a -> ack_commit a) acks;
                (match persisted.Recovery.rotate_error with
                | None -> ()
                | Some e ->
                    Log.warn (fun m ->
                        m
                          "window durable, but journal rotation failed (a \
                           later flush retries): %s"
                          (Error.to_string e))))
  in
  (* --- request handling ---------------------------------------------- *)
  let handle_request conn payload =
    M.time m_request_ns @@ fun () ->
    match Sexp.parse payload with
    | Error m -> answer_error conn (Error.invalid ("bad request: " ^ m))
    | Ok (Sexp.List [ Sexp.Atom "ping" ]) -> send conn [ "(ok pong)" ]
    | Ok (Sexp.List [ Sexp.Atom "begin" ]) ->
        conn.snapshot <- Some !ws;
        conn.sess <- Some (Session.begin_ ~max_queued:config.max_queued !ws);
        send conn [ Fmt.str "(ok (begun %d))" (Workspace.version !ws) ]
    | Ok (Sexp.List [ Sexp.Atom "queue"; Sexp.Atom obj; Sexp.Atom stmt ]) -> (
        match conn.snapshot, conn.sess with
        | Some snap, Some sess -> (
            match Upql.requests snap ~object_name:obj stmt with
            | Error m -> answer_error conn (Error.invalid m)
            | Ok reqs -> (
                let rec add sess = function
                  | [] -> Ok sess
                  | r :: rest -> (
                      match Session.queue sess obj r with
                      | Ok s -> add s rest
                      | Error _ as e -> e)
                in
                match add sess reqs with
                | Error e -> answer_error conn e
                | Ok sess' ->
                    conn.sess <- Some sess';
                    send conn
                      [ Fmt.str "(ok (queued %d))" (Session.pending sess') ]))
        | _ ->
            answer_error conn (Error.invalid "no session: send (begin) first"))
    | Ok (Sexp.List [ Sexp.Atom "commit" ]) -> (
        match conn.sess with
        | None ->
            answer_error conn (Error.invalid "no session: send (begin) first")
        | Some sess ->
            conn.sess <- None;
            conn.snapshot <- None;
            if Session.pending sess = 0 then
              send conn [ "(ok (committed 0) (versions))" ]
            else if Resilience.Breaker.degraded breaker then
              answer_error conn
                (Error.busy
                   "store is in degraded read-only mode (circuit open): \
                    writes refused, reads still served")
            else (
              match Resilience.Limiter.try_acquire limiter with
              | Error e -> answer_error conn e
              | Ok () ->
                  conn.parked <- true;
                  window :=
                    { p_conn = conn; p_sess = sess; p_t0 = M.now_ns () }
                    :: !window;
                  (* The size trigger fires at park time, not at the
                     next loop head: with flush_window = 1 every commit
                     pays its own fsync (the group-commit baseline)
                     instead of riding a batch the event loop happened
                     to read in the same round. *)
                  if List.length !window >= config.flush_window then
                    flush "size"))
    | Ok (Sexp.List [ Sexp.Atom "oql"; Sexp.Atom obj; Sexp.Atom q ]) -> (
        M.time m_oql_ns @@ fun () ->
        match Viewobject.Cache.oql cache obj q with
        | Error m -> answer_error conn (Error.invalid m)
        | Ok instances ->
            let text =
              String.concat ""
                (List.map Viewobject.Instance.to_ascii instances)
            in
            send conn
              [
                Sexp.to_string
                  (Sexp.List
                     [
                       Sexp.Atom "ok";
                       Sexp.List
                         [
                           Sexp.Atom "instances";
                           Sexp.Atom
                             (string_of_int (List.length instances));
                         ];
                       Sexp.Atom text;
                     ]);
              ])
    | Ok (Sexp.List [ Sexp.Atom "stats" ]) ->
        send conn
          [
            Sexp.to_string
              (Sexp.List
                 [
                   Sexp.Atom "ok";
                   Sexp.List [ Sexp.Atom "stats" ];
                   Sexp.Atom (Obs.Json.to_string (M.to_json ()));
                 ]);
          ]
    | Ok
        (Sexp.List
          (Sexp.Atom ("snapshot" | "journal" | "head" | "subscribe") :: _))
      -> (
        (* The follower feed protocol, answered by {!Shipper}'s listener
           code from the server's own files — so a replica can point its
           pull path and its push subscription straight at the serving
           socket. The journal is fsynced before any ack, so what these
           reads see is durable. *)
        match Shipper.accept ~net feed conn.fd payload with
        | `Answered | `Quit -> ()
        | `Close -> kill conn
        | `Subscribed sub ->
            conn.repl <- Some { sub; r_healthy = true };
            M.Gauge.set m_repl_followers
              (float_of_int (List.length (followers ())));
            Log.info (fun m -> m "conn %d: push subscriber" conn.id);
            (* Ship any backlog immediately. *)
            push_subs ~rotated:false)
    | Ok (Sexp.List [ Sexp.Atom "shutdown" ]) ->
        (* Land whatever is parked before acknowledging the stop. *)
        flush "shutdown";
        send conn [ "(ok bye)" ];
        stop := true
    | Ok _ ->
        answer_error conn (Error.invalid (Fmt.str "unknown request: %s" payload))
  in
  (* Drain the complete frames a connection has buffered. A parked
     connection stops here: its commit is a sync point, and pipelined
     frames behind it wait for the window's ack. *)
  let process_conn conn =
    let rec go n =
      if (not conn.alive) || conn.parked || !stop then n
      else
        match Netio.Stream.next conn.stream with
        | `Awaiting -> n
        | `Corrupt msg ->
            (* The stream cannot be resynced: answer in-band, drop the
               connection, keep the accept loop. *)
            M.Counter.incr m_frame_errors;
            answer_error conn (Error.corrupt (Fmt.str "server: %s" msg));
            kill conn;
            n + 1
        | `Frame payload -> (
            match conn.repl with
            | Some r ->
                (* A follower's frames are durable-position acks. *)
                (match Shipper.take_ack r.sub payload with
                | `Advanced ->
                    M.Counter.incr m_repl_acks;
                    if
                      (not r.r_healthy)
                      && Shipper.acked r.sub >= Recovery.Appender.bytes appender
                    then begin
                      r.r_healthy <- true;
                      M.Counter.incr m_repl_readmissions;
                      Log.info (fun m ->
                          m "conn %d: follower caught up; re-admitted to the \
                             quorum set"
                            conn.id)
                    end;
                    check_pendings ()
                | `Stale -> ()
                | `Garbage -> kill conn);
                go (n + 1)
            | None ->
                incr n_requests;
                M.Counter.incr m_requests;
                handle_request conn payload;
                go (n + 1))
    in
    go 0
  in
  let process_all () =
    List.fold_left
      (fun acc c -> acc + if c.alive then process_conn c else 0)
      0 !conns
  in
  let accept_new () =
    match Unix.accept srv with
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
        incr next_id;
        conns :=
          {
            fd;
            id = !next_id;
            stream = Netio.Stream.create ();
            snapshot = None;
            sess = None;
            parked = false;
            alive = true;
            repl = None;
          }
          :: !conns;
        M.Counter.incr m_connections
  in
  let chunk = Bytes.create 65536 in
  let read_into conn =
    match net.Netio.net_recv conn.fd chunk with
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
        ()
    | exception Unix.Unix_error _ -> kill conn
    | 0 -> kill conn
    | k -> Netio.Stream.feed conn.stream chunk k
  in
  let oldest_age now =
    match List.rev !window with [] -> 0. | p :: _ -> now -. p.p_t0
  in
  let rec loop () =
    let (_ : int) = process_all () in
    if List.length !window >= config.flush_window then flush "size"
    else if
      !window <> [] && oldest_age (M.now_ns ()) >= config.flush_interval_ns
    then flush "age";
    check_pendings ();
    if not !stop then begin
      let timeout =
        if !window <> [] then
          if config.eager_flush then 0.
          else
            Float.max 0.0005
              ((config.flush_interval_ns -. oldest_age (M.now_ns ())) /. 1e9)
        else -1.
      in
      (* A parked quorum window must wake by its replication deadline
         even if no fd stirs. *)
      let timeout =
        match !pendings with
        | [] -> timeout
        | w :: _ ->
            let until =
              Float.max 0.0005 ((w.w_deadline -. M.now_ns ()) /. 1e9)
            in
            if timeout < 0. then until else Float.min timeout until
      in
      let fds =
        srv :: List.filter_map (fun c -> if c.alive then Some c.fd else None) !conns
      in
      match Unix.select fds [] [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], _, _ when !window <> [] ->
          (* Input quiescent with commits parked: the group-commit
             moment — everything that was going to join this window has
             joined it. *)
          flush "quiesce";
          loop ()
      | readable, _, _ ->
          List.iter
            (fun fd ->
              if fd == srv then accept_new ()
              else
                match List.find_opt (fun c -> c.fd == fd) !conns with
                | Some conn when conn.alive -> read_into conn
                | _ -> ())
            readable;
          conns := List.filter (fun c -> c.alive) !conns;
          loop ()
    end
  in
  loop ();
  (* Don't leave clients hanging on a quorum that can no longer arrive. *)
  List.iter (fun w -> w.w_deadline <- neg_infinity) !pendings;
  check_pendings ();
  List.iter (fun c -> if c.alive then kill c) !conns;
  (try Unix.close srv with Unix.Unix_error _ -> ());
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  Log.info (fun m ->
      m "served %d request(s), %d commit(s) over %d window(s)" !n_requests
        !n_commits !n_windows);
  Ok { requests = !n_requests; commits = !n_commits; windows = !n_windows }
