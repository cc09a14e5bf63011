module Log = (val Logs.src_log Replica_core.src : Logs.LOG)
module Core = Replica_core
module M = Obs.Metrics

let ( let* ) = Result.bind
let c_polls = M.counter "replica.polls"
let c_promotions = M.counter "replica.promotions"
let c_push_reconnects = M.counter "shipper.push.reconnects"
let c_push_fallbacks = M.counter "shipper.push.fallbacks"
let h_poll_ns = M.histogram "replica.poll_ns"
let h_promote_ns = M.histogram "replica.promote_ns"

(* --- feeds ------------------------------------------------------------- *)

type feed = {
  feed_label : string;
  fetch_snapshot : unit -> (string, Error.t) result;
  fetch_journal : off:int -> (string, Error.t) result;
  fetch_head : unit -> (string, Error.t) result;
}

let file_feed ?(io = Fsio.default) source =
  let jpath = Journal.journal_path source in
  {
    feed_label = source;
    fetch_snapshot =
      (fun () ->
        let* c = io.Fsio.read source in
        match c with
        | Some c -> Ok c
        | None -> Error (Error.invalid (Fmt.str "no such store: %s" source)));
    fetch_journal =
      (fun ~off ->
        let* c = io.Fsio.read_from ~path:jpath ~off ~len:None in
        (* A missing journal is "no news yet", not an error: the leader
           journals lazily on its first durable commit. *)
        Ok (Option.value c ~default:""));
    fetch_head =
      (fun () ->
        let* c = io.Fsio.read_from ~path:jpath ~off:0 ~len:(Some 1024) in
        Ok (Option.value c ~default:""));
  }

(* --- the feed wire format ----------------------------------------------- *)

(* Every frame of the follower feed, encoded and decoded in one place:
   the requests, the status replies, and the push stream's acks. The
   frames reuse the journal's length+CRC-32 wire format ({!Netio}). *)

module X = Relational.Sexp

type request = Snapshot | Journal_from of int | Head | Subscribe of int

let request_payload = function
  | Snapshot -> "(snapshot)"
  | Head -> "(head)"
  | Journal_from off -> Fmt.str "(journal %d)" off
  | Subscribe off -> Fmt.str "(subscribe %d)" off

let request_of_payload s =
  let offset what off k =
    match int_of_string_opt off with
    | Some off when off >= 0 -> Ok (k off)
    | _ -> Error (Fmt.str "feed: bad %s offset" what)
  in
  let* doc = X.parse s in
  match doc with
  | X.List [ X.Atom "snapshot" ] -> Ok Snapshot
  | X.List [ X.Atom "head" ] -> Ok Head
  | X.List [ X.Atom "journal"; X.Atom off ] ->
      offset "journal" off (fun o -> Journal_from o)
  | X.List [ X.Atom "subscribe"; X.Atom off ] ->
      offset "subscribe" off (fun o -> Subscribe o)
  | _ -> Error "feed: unknown request"

type reply = Ready | Pushing of int * int | Refused of string

let reply_payload = function
  | Ready -> "(ok)"
  | Pushing (base, epoch) -> Fmt.str "(pushing %d %d)" base epoch
  | Refused m -> Fmt.str "(error %S)" m

let reply_of_payload s =
  match X.parse s with
  | Ok (X.List [ X.Atom "ok" ]) -> Some Ready
  | Ok (X.List [ X.Atom "pushing"; X.Atom b; X.Atom e ]) -> (
      match int_of_string_opt b, int_of_string_opt e with
      | Some b, Some e -> Some (Pushing (b, e))
      | _ -> None)
  | Ok (X.List [ X.Atom "error"; X.Atom m ]) -> Some (Refused m)
  | _ -> None

let ack_payload off = Fmt.str "(ack %d)" off

let ack_of_payload s =
  match X.parse s with
  | Ok (X.List [ X.Atom "ack"; X.Atom off ]) -> int_of_string_opt off
  | _ -> None

let header_of_bytes bytes =
  match Journal.decode_frames bytes with
  | (_, h) :: _, _, _ -> Result.to_option (Journal.header_of_payload h)
  | [], _, _ -> None

(* --- the follower ------------------------------------------------------ *)

type status = Core.status = Following | Degraded of string | Promoted

let status_label = function
  | Following -> "following"
  | Degraded _ -> "degraded"
  | Promoted -> "promoted"

(* The driver: files, sockets and the cache sync. What to fetch, append,
   fsync, fold, resync or ack is {!Replica_core}'s decision; [t] only
   carries its actions out and feeds their answers back. *)
type t = {
  io : Fsio.t;
  feed : feed;
  target : string;
  jnl : Journal.t;  (** the replica's own journal, at [target ^ ".journal"] *)
  cache : Viewobject.Cache.t;
  mutable st : Core.state;
}

type progress = Core.progress = {
  records : int; applied : int; rotated : bool; resynced : bool; lag_records : int }

(* The long-lived subscription: the leader pushes raw journal frames as
   they land, contiguous from the subscribed offset (a rotation's new
   journal streams from its byte 0, header first), and the follower acks
   its durable version back on the same socket. *)
type push = {
  push_sock : string;
  push_fd : Unix.file_descr;
  push_net : Netio.net;
  push_stream : Netio.Stream.t;
  push_chunk : Bytes.t;
  mutable push_alive : bool;
}

let workspace t = Core.workspace t.st
let cache t = t.cache
let position t = Workspace.version (workspace t)
let epoch t = Core.epoch t.st
let status t = Core.status t.st
let leader_offset t = Core.offset t.st
let push_alive p = p.push_alive

let push_close p =
  if p.push_alive then begin
    p.push_alive <- false;
    try Unix.close p.push_fd with Unix.Unix_error _ -> ()
  end

let error_of (Core.Feed e | Core.Own e | Core.Deposed e) = e
let transient ~sock msg = Error.io ~op:Error.Read ~path:sock ~transient:true msg

let promoted what =
  Error (Error.invalid ("replica: promoted; serve writes instead of " ^ what))

(* Carry out one action; its answer, if it has one, is the next event. *)
let exec t push action =
  let fetched r k = Some (match r with Ok x -> k x | Error e -> Core.Fetch_failed e) in
  match action with
  | Core.Fetch_journal off ->
      fetched (t.feed.fetch_journal ~off) (fun bytes ->
          let frames, _clean, _torn = Journal.decode_frames ~off0:off bytes in
          Core.Frames { pushed = false; frames = List.map snd frames })
  | Fetch_head -> fetched (t.feed.fetch_head ()) (fun b -> Core.Head (header_of_bytes b))
  | Fetch_snapshot ->
      fetched (t.feed.fetch_snapshot ()) (fun doc ->
          match Store.load doc with
          | Ok ws -> Core.Snapshot (doc, ws)
          | Error m -> Core.Fetch_failed (Error.corrupt m))
  | Append frame ->
      Some (Core.Wrote (t.io.Fsio.write ~path:(Journal.path t.jnl) ~append:true frame))
  | Truncate clean_bytes -> Some (Core.Wrote (Journal.truncate_torn t.jnl ~clean_bytes))
  | Fsync -> Some (Core.Wrote (t.io.Fsio.sync (Journal.path t.jnl)))
  | Fold (epoch, ws) ->
      (* The cache catches up while the history it needs is held. *)
      Workspace.sync_cache ws t.cache;
      Some (Core.Wrote (Recovery.snapshot ~io:t.io ~epoch ~store:t.target ws))
  | Install (doc, base, epoch) ->
      Some (Core.Wrote (Recovery.install ~io:t.io ~epoch ~base ~store:t.target doc))
  | Ack v -> (
      match push with
      | Some p when p.push_alive -> (
          match p.push_net.Netio.net_send p.push_fd (Journal.frame (ack_payload v)) with
          | () -> None
          | exception Unix.Unix_error (e, _, _) ->
              push_close p;
              Some (Core.Stream_lost ("ack: " ^ Unix.error_message e)))
      | _ -> None)
  | Close_stream -> Option.iter push_close push; None
  | Fail _ -> None

(* Run the core until it waits for nothing, then bring the cache to its
   state. *)
let drive ?push t step =
  let fault = ref None in
  let rec go (st, actions) =
    t.st <- st;
    List.iter
      (function
        | Core.Fail f -> fault := Some f
        | a -> Option.iter (fun ev -> go (Core.step t.st ev)) (exec t push a))
      actions
  in
  go step;
  Workspace.sync_cache (workspace t) t.cache;
  match !fault with Some f -> Error f | None -> Ok (Core.progress t.st)

let round ?push t ev = drive ?push t (Core.step t.st ev)

let pull t =
  M.Counter.incr c_polls;
  Obs.Trace.with_span h_poll_ns @@ fun () -> round t Core.Poll

let poll t =
  if status t = Promoted then promoted "polling"
  else Result.map_error error_of (pull t)

let rec until_idle ~max_rounds t =
  let* p = pull t in
  if (p.records > 0 || p.rotated || p.resynced) && max_rounds > 1 then
    let* rest = until_idle ~max_rounds:(max_rounds - 1) t in
    Ok
      { records = p.records + rest.records; applied = p.applied + rest.applied;
        rotated = p.rotated || rest.rotated; resynced = p.resynced || rest.resynced;
        lag_records = rest.lag_records }
  else Ok p

let poll_until_idle ?(max_rounds = 1000) t =
  if status t = Promoted then promoted "polling"
  else Result.map_error error_of (until_idle ~max_rounds t)

let create ?(io = Fsio.default) ?(refetch_limit = 3) ~feed ~target () =
  let jnl = Journal.create ~io (Journal.journal_path target) in
  let label = feed.feed_label in
  let* existing = io.Fsio.read target in
  let* resumed =
    match existing with
    | None -> Ok None
    | Some _ ->
        (* Resume a previous follower's files: its own snapshot ⊕
           journal is a valid store, opened exactly like a leader's. *)
        let* ws, report = Recovery.open_store ~io ~repair:true target in
        let* own = Journal.replay jnl in
        Ok (Option.map (Core.resume ~refetch_limit ~label ws report) own)
  in
  let* step =
    match resumed with
    | Some step -> Ok step
    | None ->
        let* doc = feed.fetch_snapshot () in
        let* ws = Result.map_error Error.corrupt (Store.load doc) in
        Ok (Core.bootstrap ~refetch_limit ~label ~doc ws)
  in
  let st = fst step in
  let cache = Workspace.attach_cache (Core.workspace st) in
  let t = { io; feed; target; jnl; cache; st } in
  let* (_ : progress) = Result.map_error error_of (drive t step) in
  Ok t

(* --- push-mode streaming ----------------------------------------------- *)

let subscribe_with ?(net = Netio.default_net) t ~sock =
  let* fd = Result.map_error (fun e -> Core.Feed e) (Netio.connect ~sock) in
  let p =
    { push_sock = sock; push_fd = fd; push_net = net;
      push_stream = Netio.Stream.create (); push_chunk = Bytes.create 65536;
      push_alive = true }
  in
  let fail msg =
    push_close p;
    Error (Core.Feed (transient ~sock ("replica: subscribe" ^ msg)))
  in
  let rec handshake () =
    match Netio.Stream.next p.push_stream with
    | `Frame payload -> Ok payload
    | `Corrupt m -> Error m
    | `Awaiting -> (
        match net.Netio.net_recv fd p.push_chunk with
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            handshake ()
        | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
        | 0 -> Error "stream closed during the handshake"
        | k ->
            Netio.Stream.feed p.push_stream p.push_chunk k;
            handshake ())
  in
  match
    net.Netio.net_send fd
      (Journal.frame (request_payload (Subscribe (leader_offset t))))
  with
  | exception Unix.Unix_error (e, _, _) -> fail (": " ^ Unix.error_message e)
  | () -> (
      match Result.map reply_of_payload (handshake ()) with
      | Error m -> fail (": " ^ m)
      | Ok (Some (Pushing (base, epoch))) -> (
          (* The core checks the leader's header against its own and
             acks its durable version: the position the leader counts
             it at. *)
          match round ~push:p t (Core.Stream_opened (base, epoch)) with
          | Error f ->
              push_close p;
              Error f
          | Ok _ when p.push_alive -> Ok p
          | Ok _ -> fail ": the stream closed")
      | Ok (Some (Refused m)) -> fail (" refused: " ^ m)
      | Ok (Some Ready | None) -> fail ": bad handshake frame")

let subscribe ?net t ~sock =
  if status t = Promoted then promoted "tailing"
  else Result.map_error error_of (subscribe_with ?net t ~sock)

(* One stream round. Frames may already be buffered from a read that
   overshot (the handshake chunk often carries the first pushed bytes);
   they are drained without blocking. Otherwise recv only when select
   vouches for the socket, or the poll would wedge on a quiet link. A
   frame begun but not finished within the wait means bytes were lost
   on the link: the stream is lost, instead of polling a frame that can
   never complete. Every complete frame goes to the core as one batch
   before a loss is reported, so what was received is made durable. *)
let push_step ~timeout t p =
  if not p.push_alive then
    Error (Core.Feed (transient ~sock:p.push_sock "replica: push stream closed"))
  else begin
    M.Counter.incr c_polls;
    Obs.Trace.with_span h_poll_ns @@ fun () ->
    let ready = Netio.Stream.ready p.push_stream in
    let lost =
      match Unix.select [ p.push_fd ] [] [] (if ready then 0. else timeout) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> None
      | [], _, _ ->
          if ready || not (Netio.Stream.pending p.push_stream) then None
          else Some "stalled mid-frame"
      | _ :: _, _, _ -> (
          match p.push_net.Netio.net_recv p.push_fd p.push_chunk with
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              None
          | exception Unix.Unix_error (e, _, _) -> Some (Unix.error_message e)
          | 0 -> Some "closed by the leader"
          | k ->
              Netio.Stream.feed p.push_stream p.push_chunk k;
              None)
    in
    let rec take frames =
      match Netio.Stream.next p.push_stream with
      | `Awaiting -> (List.rev frames, lost)
      | `Corrupt m -> (List.rev frames, Some ("corrupt frame: " ^ m))
      | `Frame payload -> take (payload :: frames)
    in
    let frames, lost = take [] in
    let result =
      let* prog =
        if frames = [] then Ok Core.no_progress
        else round ~push:p t (Core.Frames { pushed = true; frames })
      in
      match lost with
      | None -> Ok prog
      | Some m ->
          let* (_ : progress) = round ~push:p t (Core.Stream_lost m) in
          Ok prog
    in
    if Result.is_error result then push_close p;
    result
  end

let push_poll ?(timeout = 0.05) t p =
  if status t = Promoted then promoted "polling"
  else Result.map_error error_of (push_step ~timeout t p)

(* The resilient driver: stream while the subscription holds; on any
   drop, catch up through the stateless pull path (which absorbs
   rotations, epoch changes and suspect frames), then resubscribe from
   the follower's own position with seeded backoff. A hard fault on our
   own files and a deposed leader's refusal end it: retrying cannot
   mend either. Every feed error is retried, including a refused
   connection while the leader restarts ({!Error.of_unix} types that
   one non-transient, so it is routed by origin, not retryability). *)
let follow_push ?net ?(policy = Resilience.Policy.default)
    ?(clock = Resilience.Clock.real) ?(poll_timeout = 0.05)
    ?(should_stop = fun (_ : t) -> false) t ~sock =
  let terminal = function
    | Core.Feed _ -> false
    | Core.Own e -> not (Error.retryable e)
    | Core.Deposed _ -> true
  in
  let rec reconnect attempt total =
    if should_stop t || status t = Promoted then Ok total
    else
      match subscribe_with ?net t ~sock with
      | Ok p ->
          if attempt > 0 then M.Counter.incr c_push_reconnects;
          stream p total
      | Error f -> fallback f attempt total
  and stream p total =
    if should_stop t then (push_close p; Ok total)
    else
      match push_step ~timeout:poll_timeout t p with
      | Ok prog -> stream p (total + prog.records)
      | Error f -> fallback f 0 total
  and fallback f attempt total =
    if terminal f then Error (error_of f)
    else begin
      M.Counter.incr c_push_fallbacks;
      match until_idle ~max_rounds:1000 t with
      | Error f when terminal f -> Error (error_of f)
      | caught_up ->
          let total =
            match caught_up with Ok p -> total + p.records | Error _ -> total
          in
          if should_stop t then Ok total
          else begin
            clock.Resilience.Clock.sleep_ns
              (Resilience.Policy.backoff_ns policy ~attempt:(attempt + 1));
            reconnect (attempt + 1) total
          end
    end
  in
  reconnect 0 0

(* --- durable position -------------------------------------------------- *)

(* What promotion choices compare: the follower's own on-disk truth,
   read without a running replica. Ordering is lexicographic (epoch,
   version, offset) — a higher epoch wins regardless of byte counts,
   because epochs only move forward. *)
type durable = { d_version : int; d_epoch : int; d_offset : int }

let durable_position ?(io = Fsio.default) target =
  let jnl = Journal.create ~io (Journal.journal_path target) in
  let* r = Journal.replay jnl in
  match r with
  | Some r ->
      let version =
        List.fold_left
          (fun acc (e : Commit_log.entry) -> max acc e.Commit_log.version)
          r.Journal.base r.Journal.entries
      in
      Ok { d_version = version; d_epoch = r.Journal.epoch; d_offset = r.Journal.clean_bytes }
  | None -> (
      let* c = io.Fsio.read target in
      match c with
      | None -> Error (Error.invalid (Fmt.str "no such store: %s" target))
      | Some c ->
          let* ws, epoch = Result.map_error Error.corrupt (Store.load_snapshot c) in
          Ok { d_version = Workspace.version ws; d_epoch = epoch; d_offset = 0 })

let more_advanced a b =
  (a.d_epoch, a.d_version, a.d_offset) > (b.d_epoch, b.d_version, b.d_offset)

(* --- reads at the replication position -------------------------------- *)

let instances t name = Viewobject.Cache.instances t.cache name
let oql t name condition = Viewobject.Cache.oql t.cache name condition

(* --- promotion --------------------------------------------------------- *)

(* Promote whatever store lives at [store] from its last durable
   record: repair the torn tail under the store lock, then rotate into
   a fresh snapshot whose journal header carries the next epoch. After
   the rotate, any deposed leader still holding a handle opened under
   the old epoch is fenced: its persist sees the newer header epoch and
   refuses. Returns the writable workspace and the new epoch. *)
let promote_store ?(io = Fsio.default) ?(peers = []) store =
  Obs.Trace.with_span h_promote_ns @@ fun () ->
  let* () =
    (* Failover discipline: promote the most-advanced candidate, or
       lose every quorum-acked commit past this store's position. With
       a peer list we can check; refuse rather than silently fork. *)
    if peers = [] then Ok ()
    else
      let* own = durable_position ~io store in
      let rec check = function
        | [] -> Ok ()
        | peer :: rest ->
            let* d = durable_position ~io peer in
            if more_advanced d own then
              Error
                (Error.invalid
                   (Fmt.str
                      "replica: refusing to promote %s at (epoch %d, v%d, \
                       offset %d): peer %s is more advanced at (epoch %d, \
                       v%d, offset %d) — promote it instead"
                      store own.d_epoch own.d_version own.d_offset peer
                      d.d_epoch d.d_version d.d_offset))
            else check rest
      in
      check peers
  in
  Fsio.with_lock store @@ fun () ->
  let* ws, report = Recovery.open_store ~io ~repair:true store in
  let epoch = report.Recovery.epoch + 1 in
  let* () = Recovery.snapshot ~io ~epoch ~store ws in
  M.Counter.incr c_promotions;
  Log.info (fun m ->
      m "promoted %s at v%d, epoch %d" store (Workspace.version ws) epoch);
  Ok (ws, epoch)

let promote t =
  let* ws, epoch = promote_store ~io:t.io t.target in
  t.st <- Core.promoted t.st ws ~epoch;
  Workspace.sync_cache ws t.cache;
  Ok (ws, epoch)
