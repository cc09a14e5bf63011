open Relational

let src = Logs.Src.create "penguin.server" ~doc:"network serving front end"

module Log = (val Logs.src_log src : Logs.LOG)
module M = Obs.Metrics

let m_requests = M.counter "server.requests"
let m_request_errors = M.counter "server.request_errors"
let m_connections = M.counter "server.connections"
let m_disconnects = M.counter "server.disconnects"
let m_frame_errors = M.counter "server.frame_errors"
let m_commits = M.counter "server.commits"
let m_updates = M.counter "server.updates"
let m_conflicts = M.counter "server.conflicts"
let m_dropped_parked = M.counter "server.dropped_parked"
let m_shed = M.counter "resilience.shed"
let m_windows = M.counter "server.windows"
let m_commit_ns = M.histogram "server.commit_ns"
let m_request_ns = M.histogram "server.request_ns"
let m_oql_ns = M.histogram "server.oql_ns"
let m_flush_ns = M.histogram "server.flush_ns"
let m_window_commit_ns = M.histogram "server.window_commit_ns"
let m_repl_acks = M.counter "server.replication.acks"
let m_repl_quorum = M.counter "server.replication.quorum_commits"
let m_repl_under = M.counter "server.replication.under_replicated"
let m_repl_deadline = M.counter "server.replication.deadline_failures"
let m_repl_evictions = M.counter "server.replication.evictions"
let m_repl_readmissions = M.counter "server.replication.readmissions"
let m_repl_followers = M.gauge "server.replication.followers"
let m_log_entries = M.gauge "server.commit_log_entries"

type on_lag = Degrade | Fail

type config = {
  flush_window : int;
  flush_interval_ns : float;
  max_parked : int;
  sync_replicas : int;
  repl_deadline_ns : float;
  on_lag : on_lag;
}

let default_config =
  { flush_window = 64; flush_interval_ns = 10e6; max_parked = 256;
    sync_replicas = 0; repl_deadline_ns = 50e6; on_lag = Degrade }

(* The per-session admission bound: statements a connection may queue
   before its (commit). It counts what the client sent, not the updates
   a statement expands to, so one statement over many instances is never
   refused for its size. *)
let max_stmts = 128

type stats = { requests : int; commits : int; windows : int }
type conn_id = int

type event =
  | Opened of conn_id
  | Closed of conn_id
  | Frame of conn_id * string
  | Corrupt of conn_id * string
  | Tick of float
  | Idle
  | Appended of (unit, Error.t) result
  | Subscribed of conn_id * int
  | Follower_ack of conn_id * int

type action =
  | Send of conn_id * string list
  | Close of conn_id
  | Append of int * Workspace.t
  | Feed of conn_id * string

(* A connection that subscribed is a push follower: the last version it
   acked durable is what quorum release reads. A follower that misses a
   window's replication deadline is evicted ([healthy <- false], its
   acks no longer count) and re-admitted only when its acked version
   reaches the committed one. *)
type conn = {
  id : conn_id;
  mutable sess : Session.t option;
  mutable stmts : int;  (** statements queued in [sess] *)
  mutable parked : bool;
  mutable follower : bool;
  mutable acked : int;
  mutable healthy : bool;
}

type parked = { p_conn : conn; p_sess : Session.t; p_t0 : float }

(* A flushed window whose client acks are parked on replication: local
   fsync is done (the commits are durable here), but with
   [sync_replicas = K] the acks wait until K healthy followers confirm
   versions at or past [w_version] — or until [w_deadline], when the
   [on_lag] policy resolves them. *)
type pending = {
  w_version : int;  (** the last version this window committed *)
  mutable w_deadline : float;  (** forced to [neg_infinity] by shutdown *)
  mutable w_acks : (parked * int list) list;
}

(* A flush whose journal append is out with the event loop; its commits
   stay parked until the [Appended] result. *)
type inflight = {
  f_ws : Workspace.t;
  f_t0 : float;
  mutable f_acks : (parked * int list) list;
}

type state = {
  config : config;
  cache : Viewobject.Cache.t;
  conns : (conn_id, conn) Hashtbl.t;  (** live connections only *)
  mutable ws : Workspace.t;
  mutable now : float;
  mutable n_parked : int;  (** connections parked on a commit *)
  mutable window : parked list;  (** newest first *)
  mutable pendings : pending list;  (** oldest first *)
  mutable inflight : inflight option;
  mutable stopping : conn option;  (** asked to shut down, flush pending *)
  mutable stopped : bool;
  mutable out : action list;  (** this step's actions, newest first *)
  mutable n_requests : int;
  mutable n_commits : int;
  mutable n_windows : int;
}

let create ?(config = default_config) ws =
  {
    config; cache = Workspace.attach_cache ws;
    conns = Hashtbl.create 64; ws; now = 0.; n_parked = 0; window = [];
    pendings = []; inflight = None; stopping = None; stopped = false;
    out = []; n_requests = 0; n_commits = 0; n_windows = 0;
  }

let stats st = { requests = st.n_requests; commits = st.n_commits; windows = st.n_windows }

let stopped st = st.stopped
let parked st = st.n_parked

(* Open and not parked on a commit: free to take its next frame. *)
let free st id =
  match Hashtbl.find_opt st.conns id with Some c -> not c.parked | None -> false

let wants st id = (not st.stopped) && st.stopping = None && free st id

(* The loop must not sleep while it has work: an unflushed window, an
   append in flight, or a complete frame buffered on a connection that
   is free to read it (a flush may just have unparked it). Otherwise it
   sleeps until the oldest quorum wait's deadline, or until input. *)
let wake st ~held =
  if st.window <> [] || st.inflight <> None || List.exists (free st) held then
    Some st.now
  else match st.pendings with [] -> None | w :: _ -> Some w.w_deadline

let emit st a = st.out <- a :: st.out
let sexp atoms = Sexp.to_string (Sexp.List atoms)

let followers st =
  Hashtbl.fold (fun _ c acc -> if c.follower then c :: acc else acc) st.conns []

let count_followers st =
  M.Gauge.set m_repl_followers (float_of_int (List.length (followers st)))

let alive st c = Hashtbl.mem st.conns c.id

(* The one place a parked commit leaves the admission count. *)
let unpark st c =
  c.parked <- false;
  st.n_parked <- st.n_parked - 1

let kill st c =
  if alive st c then begin
    Hashtbl.remove st.conns c.id;
    emit st (Close c.id);
    if c.parked then begin
      (* The client vanished while its commit was parked: drop the
         commit from the window, its append in flight or its pending
         quorum wait — the rest of the batch still lands. *)
      let others (p, _) = p.p_conn != c in
      st.window <- List.filter (fun p -> p.p_conn != c) st.window;
      List.iter (fun w -> w.w_acks <- List.filter others w.w_acks) st.pendings;
      Option.iter (fun f -> f.f_acks <- List.filter others f.f_acks) st.inflight;
      unpark st c;
      M.Counter.incr m_dropped_parked;
      Log.info (fun m ->
          m "conn %d: disconnected while parked; commit dropped" c.id)
    end;
    if c.follower then count_followers st;
    M.Counter.incr m_disconnects
  end

let send st c payloads = if alive st c then emit st (Send (c.id, payloads))

let answer_error st c e =
  M.Counter.incr m_request_errors;
  let retryable = string_of_bool (Error.retryable e) in
  send st c
    [ sexp Sexp.[ Atom "error"; Atom (Error.kind e); Atom retryable;
                  Atom (Error.to_string e) ] ]

(* Admission control: past a bound the request is refused at once with
   [Busy] rather than queued. *)
let shed st c msg =
  M.Counter.incr m_shed;
  Obs.Trace.tag "shed" "true";
  answer_error st c (Error.busy msg)

(* --- quorum replication tracker ---------------------------------------- *)

let ack_commit st ?(warn = false) (p, versions) =
  unpark st p.p_conn;
  st.n_commits <- st.n_commits + 1;
  M.Counter.incr m_commits;
  M.Counter.add m_updates (List.length versions);
  M.Histogram.observe m_commit_ns (st.now -. p.p_t0);
  let vs = List.map (fun v -> " " ^ string_of_int v) versions in
  let warning = if warn then " (warning under_replicated)" else "" in
  send st p.p_conn
    [ Fmt.str "(ok (committed %d) (versions%s)%s)" (List.length versions)
        (String.concat "" vs) warning ]

let reject_parked st p e =
  unpark st p.p_conn;
  answer_error st p.p_conn e

let quorum_reached st w =
  List.length
    (List.filter (fun f -> f.healthy && f.acked >= w.w_version) (followers st))
  >= st.config.sync_replicas

(* Resolve every parked window whose quorum arrived or whose replication
   deadline passed. A deadline first evicts the laggards from the quorum
   set — their acks stop counting until they catch back up to the
   committed version — then applies the lag policy to the window's parked
   client acks. *)
let check_pendings st =
  let config = st.config in
  st.pendings <-
    List.filter
      (fun w ->
        if quorum_reached st w then begin
          M.Counter.incr m_repl_quorum;
          List.iter (ack_commit st) w.w_acks;
          false
        end
        else if st.now >= w.w_deadline then begin
          let lagging f = f.healthy && f.acked < w.w_version in
          List.iter
            (fun f ->
              f.healthy <- false;
              M.Counter.incr m_repl_evictions)
            (List.filter lagging (followers st));
          let ms = config.repl_deadline_ns /. 1e6 in
          (match config.on_lag with
          | Degrade ->
              M.Counter.incr m_repl_under;
              Log.warn (fun m ->
                  m "window at v%d under-replicated after %.0f ms; acking \
                     degraded" w.w_version ms);
              List.iter (ack_commit st ~warn:true) w.w_acks
          | Fail ->
              M.Counter.incr m_repl_deadline;
              let e =
                Error.deadline_exceeded
                  (Fmt.str "commit durable locally but not confirmed by %d \
                            replica(s) within %.0f ms" config.sync_replicas ms)
              in
              List.iter (fun (p, _) -> reject_parked st p e) w.w_acks);
          false
        end
        else true)
      st.pendings

(* Once a requested shutdown's flush has landed: acknowledge the stop,
   resolve every quorum wait that can no longer arrive, and close every
   connection. *)
let finish_stop st =
  match st.stopping with
  | Some c when st.inflight = None ->
      st.stopping <- None;
      st.stopped <- true;
      send st c [ "(ok bye)" ];
      List.iter (fun w -> w.w_deadline <- neg_infinity) st.pendings;
      check_pendings st;
      Hashtbl.fold (fun _ c acc -> c :: acc) st.conns [] |> List.iter (kill st)
  | _ -> ()

(* --- the flush: one commit window + one journal append ----------------- *)

(* Commit the window in memory through {!Session.commit_window}, answer
   the sessions it refused, and hand the new workspace to the event loop
   for one journal append; [appended] finishes the flush. *)
let flush st reason =
  match List.rev st.window with
  | [] -> ()
  | _ when st.inflight <> None -> ()
  | parked ->
      st.window <- [];
      let t0 = st.now in
      Obs.Trace.with_span m_window_commit_ns
        ~tags:[ "reason", reason; "parked", string_of_int (List.length parked) ]
      @@ fun () ->
      let cur = st.ws in
      let ws', verdicts =
        Session.commit_window cur (List.map (fun p -> p.p_sess) parked)
      in
      let acks =
        List.combine parked verdicts
        |> List.filter_map (fun (p, verdict) ->
               match verdict with
               | Ok { Session.versions; _ } -> Some (p, versions)
               | Error e ->
                   M.Counter.incr m_conflicts;
                   reject_parked st p e;
                   None)
      in
      if acks = [] then M.Histogram.observe m_flush_ns (st.now -. t0)
      else begin
        (* One journal append + one fsync for the whole window: the
           event loop's. *)
        st.inflight <- Some { f_ws = ws'; f_t0 = t0; f_acks = acks };
        emit st (Append (Workspace.version cur, ws'))
      end

(* The retention floor: the oldest version a later window can ask the
   log about. The next append's [since] and the cache position are the
   workspace's version; every open session and every session parked for
   the next window will be checked from its base. An idle open session
   pins the history since its [(begin)]. *)
let trim_log st =
  let base acc s = min acc (Session.base_version s) in
  let floor =
    Hashtbl.fold
      (fun _ c acc -> Option.fold ~none:acc ~some:(base acc) c.sess)
      st.conns (Workspace.version st.ws)
  in
  let floor = List.fold_left (fun acc p -> base acc p.p_sess) floor st.window in
  let log = Commit_log.trim st.ws.Workspace.log ~keep_after:floor in
  M.Gauge.set m_log_entries (float_of_int (Commit_log.length log));
  st.ws <- { st.ws with Workspace.log }

let appended st result =
  match st.inflight with
  | None -> ()
  | Some f ->
      st.inflight <- None;
      let acks = f.f_acks in
      (match result with
      | Error e ->
          (* Not durable — nothing is acked, nothing published. *)
          Log.warn (fun m ->
              m "flush of %d commit(s) failed to persist: %s" (List.length acks)
                (Error.to_string e));
          let e = Error.with_context "durable append failed" e in
          List.iter (fun (p, _) -> reject_parked st p e) acks
      | Ok () ->
          st.ws <- f.f_ws;
          Workspace.sync_cache st.ws st.cache;
          trim_log st;
          st.n_windows <- st.n_windows + 1;
          M.Counter.incr m_windows;
          if st.config.sync_replicas > 0 then begin
            (* Locally durable; the client acks stay parked until K
               followers confirm the window's last version (or the
               replication deadline resolves them). *)
            let w_deadline = st.now +. st.config.repl_deadline_ns in
            let w_version = Workspace.version st.ws in
            st.pendings <-
              st.pendings @ [ { w_version; w_deadline; w_acks = acks } ];
            check_pendings st
          end
          else List.iter (fun a -> ack_commit st a) acks);
      M.Histogram.observe m_flush_ns (st.now -. f.f_t0);
      finish_stop st

(* --- request handling ---------------------------------------------------- *)

let handle_request st c payload =
  Obs.Trace.with_span m_request_ns @@ fun () ->
  match Sexp.parse payload with
  | Error m -> answer_error st c (Error.invalid ("bad request: " ^ m))
  | Ok (Sexp.List [ Sexp.Atom "ping" ]) -> send st c [ "(ok pong)" ]
  | Ok (Sexp.List [ Sexp.Atom "begin" ]) ->
      c.sess <- Some (Session.begin_ st.ws);
      c.stmts <- 0;
      send st c [ Fmt.str "(ok (begun %d))" (Workspace.version st.ws) ]
  | Ok (Sexp.List [ Sexp.Atom "queue"; Sexp.Atom obj; Sexp.Atom stmt ]) -> (
      match c.sess with
      | None -> answer_error st c (Error.invalid "no session: send (begin) first")
      | Some _ when c.stmts >= max_stmts ->
          shed st c
            (Fmt.str "session: %d statement(s) already queued (bound %d); \
                      commit or begin a fresh session" c.stmts max_stmts)
      | Some sess -> (
          match Session.queue_stmt sess obj stmt with
          | Error e -> answer_error st c e
          | Ok sess' ->
              c.sess <- Some sess';
              c.stmts <- c.stmts + 1;
              send st c [ Fmt.str "(ok (queued %d))" (Session.pending sess') ]))
  | Ok (Sexp.List [ Sexp.Atom "commit" ]) -> (
      match c.sess with
      | None -> answer_error st c (Error.invalid "no session: send (begin) first")
      | Some sess ->
          c.sess <- None;
          if Session.pending sess = 0 then
            send st c [ "(ok (committed 0) (versions))" ]
          else if st.n_parked >= st.config.max_parked then
            shed st c
              (Fmt.str "server: %d commit(s) parked (limit %d); request shed"
                 st.n_parked st.config.max_parked)
          else begin
            c.parked <- true;
            st.n_parked <- st.n_parked + 1;
            st.window <-
              { p_conn = c; p_sess = sess; p_t0 = st.now } :: st.window;
            (* The size trigger fires at park time, not at the next loop
               head: with flush_window = 1 every commit pays its own
               fsync (the group-commit baseline) instead of riding a
               batch the event loop happened to read in the same
               round. *)
            if List.length st.window >= st.config.flush_window then
              flush st "size"
          end)
  | Ok (Sexp.List [ Sexp.Atom "oql"; Sexp.Atom obj; Sexp.Atom q ]) -> (
      Obs.Trace.with_span m_oql_ns @@ fun () ->
      match Viewobject.Cache.oql st.cache obj q with
      | Error m -> answer_error st c (Error.invalid m)
      | Ok instances ->
          let n = string_of_int (List.length instances) in
          let text = String.concat "" (List.map Viewobject.Instance.to_ascii instances) in
          send st c [ sexp Sexp.[ Atom "ok"; List [ Atom "instances"; Atom n ]; Atom text ] ])
  | Ok (Sexp.List [ Sexp.Atom "stats" ]) ->
      let json = Obs.Json.to_string (M.to_json ()) in
      send st c [ sexp Sexp.[ Atom "ok"; List [ Atom "stats" ]; Atom json ] ]
  | Ok
      (Sexp.List (Sexp.Atom ("snapshot" | "journal" | "head" | "subscribe") :: _))
    ->
      (* The follower feed protocol, answered by {!Shipper.accept}
         from the server's own files — so a replica can point its
         pull path and its push subscription straight at the serving
         socket. The journal is fsynced before any ack, so what these
         reads see is durable. *)
      emit st (Feed (c.id, payload))
  | Ok (Sexp.List [ Sexp.Atom "shutdown" ]) ->
      (* Land whatever is parked before acknowledging the stop. *)
      st.stopping <- Some c;
      flush st "shutdown";
      finish_stop st
  | Ok _ ->
      answer_error st c (Error.invalid (Fmt.str "unknown request: %s" payload))

let step st ev =
  let with_conn id f = Option.iter f (Hashtbl.find_opt st.conns id) in
  (match ev with
  | Opened id ->
      Hashtbl.replace st.conns id
        { id; sess = None; stmts = 0; parked = false; follower = false;
          acked = 0; healthy = false };
      M.Counter.incr m_connections
  | Closed id -> with_conn id (kill st)
  | Frame (id, payload) ->
      with_conn id (fun c ->
          st.n_requests <- st.n_requests + 1;
          M.Counter.incr m_requests;
          handle_request st c payload)
  | Corrupt (id, msg) ->
      (* The stream cannot be resynced: answer in-band, drop the
         connection, keep the accept loop. *)
      with_conn id (fun c ->
          M.Counter.incr m_frame_errors;
          answer_error st c (Error.corrupt (Fmt.str "server: %s" msg));
          kill st c)
  | Tick now ->
      st.now <- now;
      (match List.rev st.window with
      | [] -> ()
      | _ when List.length st.window >= st.config.flush_window -> flush st "size"
      | p :: _ when now -. p.p_t0 >= st.config.flush_interval_ns -> flush st "age"
      | _ -> ());
      check_pendings st
  | Idle ->
      (* Input quiescent with commits parked: the group-commit moment —
         everything that was going to join this window has joined it. *)
      flush st "quiesce"
  | Appended result -> appended st result
  | Subscribed (id, v) ->
      with_conn id (fun c ->
          c.follower <- true;
          c.acked <- v;
          c.healthy <- true;
          count_followers st;
          Log.info (fun m -> m "conn %d: push subscriber at v%d" id v);
          (* The subscribed version is durable on the follower and may
             already meet a quorum. *)
          check_pendings st)
  | Follower_ack (id, v) ->
      with_conn id (fun f ->
          f.acked <- v;
          M.Counter.incr m_repl_acks;
          if (not f.healthy) && v >= Workspace.version st.ws then begin
            f.healthy <- true;
            M.Counter.incr m_repl_readmissions;
            Log.info (fun m ->
                m "conn %d: follower caught up; re-admitted to the quorum set" id)
          end;
          check_pendings st));
  let out = List.rev st.out in
  st.out <- [];
  st, out
