module Core = Server_core
module Log = (val Logs.src_log Core.src : Logs.LOG)
module M = Obs.Metrics

let ( let* ) = Result.bind

type on_lag = Core.on_lag = Degrade | Fail

type config = Core.config = {
  flush_window : int; flush_interval_ns : float; max_parked : int;
  sync_replicas : int; repl_deadline_ns : float; on_lag : on_lag;
}

type stats = Core.stats = { requests : int; commits : int; windows : int }

let default_config = Core.default_config

(* The event loop's half of a connection: its socket, the bytes read off it
   and not yet handed to the core, and — for a push follower — the
   {!Shipper} subscription its journal bytes are relayed through. *)
type conn = {
  fd : Unix.file_descr;
  id : Core.conn_id;
  stream : Netio.Stream.t;
  mutable sub : Shipper.sub option;
}

let serve ?(io = Fsio.default) ?(net = Netio.default_net)
    ?(config = default_config) ?breaker ~store ~sock () =
  let breaker = match breaker with Some b -> b | None ->
    Resilience.Breaker.create ~label:("server:" ^ store) () in
  (* Writes to a connection the client already closed must surface as
     EPIPE (handled per-connection), not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  M.enable ();
  (* One writer per store: the server owns the cross-process lock for
     its whole lifetime, so CLI commits wait (or hit their deadline)
     instead of racing the flush loop's reopen-free persists. *)
  Fsio.with_lock store @@ fun () ->
  let* ws0, report = Recovery.open_store ~io store in
  (* The server is the sole writer for its lifetime (it holds the store
     lock above), so it validates the journal once, cutting a torn tail
     there, and appends incrementally — {!Recovery.persist}'s per-call
     replay would make every flush pay for the whole journal. *)
  let* appender =
    Recovery.Appender.create ~io ~expect_epoch:report.Recovery.epoch
      ~snapshot_bytes:report.Recovery.snapshot_bytes ~store ws0
  in
  let core = Core.create ~config ws0 in
  let* srv = Netio.listen ~sock in
  Log.info (fun m ->
      m "serving %s on %s (window %d, interval %.1f ms)" store sock
        config.flush_window (config.flush_interval_ns /. 1e6));
  (* A window whose append fails has its record cut back off before
     the failure is reported ({!Recovery.Appender}). If that cut fails
     too, the journal holds the whole record though no client was acked
     for it, and the next window cuts it. Until one lands, followers are
     served the journal only up to the last acked version, or they
     would apply a commit the leader drops. *)
  let failed = ref false in
  let acked_prefix ~off bytes =
    let frames, _, _ = Journal.decode_frames ~off0:off bytes in
    let unacked (at, payload) =
      at > 0
      &&
      match Journal.record_of_payload payload with
      | Ok es ->
          List.exists
            (fun (e : Commit_log.entry) ->
              e.Commit_log.version > Recovery.Appender.tail appender)
            es
      | Error _ -> true
    in
    match List.find_opt unacked frames with
    | Some (at, _) -> String.sub bytes 0 (at - off)
    | None -> bytes
  in
  let feed =
    let file = Replica.file_feed ~io store in
    { file with
      Replica.fetch_journal =
        (fun ~off ->
          let* bytes = file.Replica.fetch_journal ~off in
          Ok (if !failed then acked_prefix ~off bytes else bytes)) }
  in
  let conns : conn list ref = ref [] (* newest first *) in
  let find id = List.find_opt (fun c -> c.id = id) !conns in
  let next_id = ref 0 in
  (* Events the actions of a step give rise to wait here, so the core
     takes them in order, one step at a time. *)
  let events = Queue.create () in
  (* A failed send or relay closes the connection through the core. *)
  let lost id = Queue.push (Core.Closed id) events in
  let persist_policy = { Resilience.Policy.default with max_attempts = 3 } in
  let relay c sub = if not (Shipper.relay ~net feed sub) then lost c.id in
  let relay_all () = List.iter (fun c -> Option.iter (relay c) c.sub) !conns in
  let exec = function
    | Core.Send (id, payloads) ->
        Option.iter
          (fun c ->
            try
              net.Netio.net_send c.fd
                (String.concat "" (List.map Journal.frame payloads))
            with Unix.Unix_error _ -> lost id)
          (find id)
    | Core.Close id ->
        Option.iter
          (fun c ->
            conns := List.filter (( != ) c) !conns;
            try Unix.close c.fd with Unix.Unix_error _ -> ())
          (find id)
    | Core.Append (since, ws') ->
        (* One journal append + one fsync for the whole window;
           transient disk faults retry briefly, inside the breaker, so
           an open breaker refuses the window once, without touching
           the disk (degraded read-only mode), and a half-open one
           takes the window as its probe. The window's record reaches
           the push followers before a due rotation replaces the
           journal: a caught-up follower then meets the new header at
           its own version, not past it. The new journal is relayed
           from its header. *)
        let result =
          Resilience.Breaker.protect breaker @@ fun () ->
          Resilience.retry ~policy:persist_policy ~label:"server.persist"
            (fun () -> Recovery.Appender.write appender ~since ws')
        in
        failed := Result.is_error result;
        if Result.is_ok result then begin
          relay_all ();
          let p = Recovery.Appender.rotate appender ws' in
          if p.Recovery.rotated then relay_all ();
          Option.iter
            (fun e ->
              Log.warn (fun m ->
                  m "window durable, but journal rotation failed (a later \
                     flush retries): %a" Error.pp e))
            p.Recovery.rotate_error
        end;
        Queue.push (Core.Tick (M.now_ns ())) events;
        Queue.push (Core.Appended result) events
    | Core.Feed (id, payload) ->
        Option.iter
          (fun c ->
            match Shipper.accept ~net feed c.fd payload with
            | `Answered -> ()
            | `Close -> lost id
            | `Subscribed sub ->
                (* Ship any backlog right away. *)
                c.sub <- Some sub;
                relay c sub;
                Queue.push (Core.Subscribed (id, Shipper.acked sub)) events)
          (find id)
  in
  let pump ev =
    Queue.push ev events;
    while not (Queue.is_empty events) do
      let _, actions = Core.step core (Queue.pop events) in
      List.iter exec actions
    done
  in
  (* Hand the core every complete frame a connection has buffered, for
     as long as it wants them: a parked connection stops here — its
     commit is a sync point, and pipelined frames behind it wait for the
     window's ack. A follower's frames are durable-position acks. *)
  let rec drain c =
    if Core.wants core c.id then
      match Netio.Stream.next c.stream, c.sub with
      | `Awaiting, _ -> ()
      | `Corrupt msg, _ -> pump (Core.Corrupt (c.id, msg))
      | `Frame payload, None ->
          pump (Core.Frame (c.id, payload));
          drain c
      | `Frame payload, Some sub ->
          (match Shipper.take_ack sub payload with
          | `Advanced -> pump (Core.Follower_ack (c.id, Shipper.acked sub))
          | `Stale -> ()
          | `Garbage -> pump (Core.Closed c.id));
          drain c
  in
  let accept_new () =
    match Unix.accept srv with
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
        incr next_id;
        let c = { fd; id = !next_id; stream = Netio.Stream.create (); sub = None } in
        conns := c :: !conns;
        pump (Core.Opened c.id)
  in
  let chunk = Bytes.create 65536 in
  let read_into c =
    match net.Netio.net_recv c.fd chunk with
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
        ()
    | exception Unix.Unix_error _ -> pump (Core.Closed c.id)
    | 0 -> pump (Core.Closed c.id)
    | k -> Netio.Stream.feed c.stream chunk k
  in
  let rec loop () =
    List.iter drain !conns;
    if not (Core.stopped core) then begin
      let timeout =
        let ready c = if Netio.Stream.ready c.stream then Some c.id else None in
        match Core.wake core ~held:(List.filter_map ready !conns) with
        | None -> -1.
        | Some at -> Float.max 0. ((at -. M.now_ns ()) /. 1e9)
      in
      match Unix.select (srv :: List.map (fun c -> c.fd) !conns) [] [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | readable, _, _ ->
          pump (Core.Tick (M.now_ns ()));
          if readable = [] then pump Core.Idle;
          List.iter
            (fun fd ->
              if fd == srv then accept_new ()
              else Option.iter read_into (List.find_opt (fun c -> c.fd == fd) !conns))
            readable;
          loop ()
    end
  in
  loop ();
  (try Unix.close srv with Unix.Unix_error _ -> ());
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let stats = Core.stats core in
  Log.info (fun m ->
      m "served %d request(s), %d commit(s) over %d window(s)" stats.requests
        stats.commits stats.windows);
  Ok stats
