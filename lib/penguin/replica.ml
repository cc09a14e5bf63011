let src = Logs.Src.create "penguin.replica" ~doc:"journal-shipping follower"

module Log = (val Logs.src_log src : Logs.LOG)

let ( let* ) = Result.bind

module M = Obs.Metrics

let c_polls = M.counter ~help:"replica poll rounds" "replica.polls"

let c_applied =
  M.counter ~help:"journal records ingested from the leader"
    "replica.applied_records"

let c_refetches =
  M.counter ~help:"suspect frames re-fetched instead of applied"
    "replica.refetches"

let c_promotions =
  M.counter ~help:"followers promoted to writable leaders"
    "replica.promotions"

let c_resyncs =
  M.counter ~help:"full snapshot resyncs (follower fell behind a rotation)"
    "replica.resyncs"

let c_rotations =
  M.counter ~help:"leader journal rotations followed in place"
    "replica.rotations_followed"

let c_quarantines =
  M.counter ~help:"corrupt shipped records quarantined (degraded, not wedged)"
    "replica.quarantines"

let c_push_frames =
  M.counter ~help:"journal records ingested off a push stream"
    "shipper.push.frames"

let c_push_reconnects =
  M.counter ~help:"push stream resubscriptions after a drop"
    "shipper.push.reconnects"

let c_push_fallbacks =
  M.counter ~help:"pull-path catch-up rounds while the push stream was down"
    "shipper.push.fallbacks"

let g_lag =
  M.gauge ~help:"complete leader records visible but not yet applied"
    "replica.lag_records"

let g_epoch = M.gauge ~help:"leader epoch this replica follows" "replica.epoch"

let h_poll_ns = M.histogram ~help:"one tail/apply poll round" "replica.poll_ns"

let h_promote_ns =
  M.histogram ~help:"promotion: repair + epoch-bumping rotation"
    "replica.promote_ns"

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

type status = Following | Degraded of string | Promoted

let status_label = function
  | Following -> "following"
  | Degraded _ -> "degraded"
  | Promoted -> "promoted"

type t = {
  io : Fsio.t;
  feed : feed;
  target : string;
  jnl : Journal.t;  (** the replica's own journal, at [target ^ ".journal"] *)
  refetch_limit : int;
  cache : Viewobject.Cache.t;
  mutable ws : Workspace.t;
  mutable base : int;  (** leader journal base currently followed *)
  mutable epoch : int;  (** leader epoch currently followed *)
  mutable leader_off : int;  (** leader journal bytes consumed *)
  mutable status : status;
  mutable suspect : (int * int) option;
      (** a CRC-valid frame at this leader offset failed to parse;
          [(offset, refetch attempts so far)] *)
  mutable unsynced : bool;  (** own-journal appends not yet fsynced *)
}

type progress = {
  records : int;  (** leader journal records ingested this poll *)
  applied : int;  (** commit-log entries applied to the workspace *)
  rotated : bool;  (** followed a leader rotation barrier in place *)
  resynced : bool;  (** fell back to a full snapshot resync *)
  lag_records : int;  (** complete leader records seen but not applied *)
}

let no_progress = {
  records = 0;
  applied = 0;
  rotated = false;
  resynced = false;
  lag_records = 0;
}

let workspace t = t.ws
let cache t = t.cache
let position t = Workspace.version t.ws
let epoch t = t.epoch
let status t = t.status
let leader_offset t = t.leader_off

let frame_end off payload = off + 8 + String.length payload

(* The durability point for everything ingested so far: only a version
   it covers is ever acked upstream. *)
let make_durable t =
  let* () = t.io.Fsio.sync (Journal.path t.jnl) in
  t.unsynced <- false;
  Ok ()

let set_epoch_gauge e = M.Gauge.set g_epoch (float_of_int e)

(* Apply one shipped record to the in-memory workspace. Validation
   happens here, *before* the raw frame is re-journaled: a record the
   structural model refuses never lands in the replica's own journal,
   so its store stays openable. Entries at or below the replica's
   version are already held (rotation overlap) and are skipped. *)
let apply_record t entries =
  let vers = Workspace.version t.ws in
  let fresh =
    List.filter
      (fun (e : Commit_log.entry) -> e.Commit_log.version > vers)
      entries
  in
  let* ws =
    List.fold_left
      (fun acc e ->
        let* ws = acc in
        Recovery.apply_entry ~path:(Journal.path t.jnl) ws e)
      (Ok t.ws) fresh
  in
  Ok (ws, List.length fresh)

(* Ingest one verified (CRC-valid, parseable) leader frame: validate in
   memory, append the identical frame bytes to the replica's own
   journal, then publish the new workspace state. [sync] is deferred to
   once per poll — losing the unsynced tail in a crash only rewinds the
   replica to an earlier leader offset, which the next locate redoes. *)
let ingest t ~off ~payload record =
  let* ws, applied = apply_record t record in
  let* () =
    t.io.Fsio.write ~path:(Journal.path t.jnl) ~append:true
      (Journal.frame payload)
  in
  t.ws <- ws;
  t.unsynced <- true;
  t.leader_off <- frame_end off payload;
  M.Counter.incr c_applied;
  Ok applied

(* Walk the leader journal from the top and position [leader_off] just
   past every record the replica already holds — the once-per-alignment
   full read that lets every later poll read only new bytes. *)
let locate t =
  let* chunk = t.feed.fetch_journal ~off:0 in
  let frames, _clean, _torn = Journal.decode_frames chunk in
  match frames with
  | [] ->
      (* No leader journal yet: poll from the top until one appears. *)
      t.leader_off <- 0;
      Ok ()
  | (hoff, header) :: records ->
      let* base, epoch =
        Result.map_error
          (fun m -> Error.corrupt_record ~path:t.feed.feed_label m)
          (Journal.header_of_payload header)
      in
      (* Epochs only move forward. A feed advertising an older epoch
         than this store has already seen is a deposed leader —
         following it would fork the replicated history. *)
      let* () =
        if epoch < t.epoch then
          Error
            (Error.invalid
               (Fmt.str
                  "replica: feed %s is at epoch %d but this store has seen \
                   epoch %d — refusing to follow a deposed leader"
                  t.feed.feed_label epoch t.epoch))
        else Ok ()
      in
      t.base <- base;
      t.epoch <- epoch;
      set_epoch_gauge epoch;
      let vers = Workspace.version t.ws in
      let rec skip off = function
        | [] -> off
        | (roff, payload) :: rest -> (
            match Journal.record_of_payload payload with
            | Error _ -> roff (* leave suspect frames to the poll loop *)
            | Ok entries ->
                let held =
                  List.for_all
                    (fun (e : Commit_log.entry) ->
                      e.Commit_log.version <= vers)
                    entries
                in
                if held then skip (frame_end roff payload) rest else roff)
      in
      t.leader_off <- skip (frame_end hoff header) records;
      Ok ()

(* A quarantined record that no longer exists is no longer a reason to
   be degraded: a rotation folded it away (or a resync replaced the
   whole history), so the follower is whole again. Promotion is not a
   healable state. *)
let heal t =
  match t.status with
  | Degraded _ -> t.status <- Following
  | Following | Promoted -> ()

(* Full resync: refetch the leader snapshot, restart the replica's own
   store from it, and re-locate. The attached cache survives the object
   — sync_cache sees the truncated history and invalidates, so entries
   rebuild lazily rather than serving stale reads. *)
let resync t =
  M.Counter.incr c_resyncs;
  let* snapshot = t.feed.fetch_snapshot () in
  let* ws0 = Result.map_error Error.corrupt (Store.load snapshot) in
  let* head = t.feed.fetch_head () in
  let epoch =
    match header_of_bytes head with Some (_, e) -> e | None -> 0
  in
  let* () = Fsio.atomic_write t.io ~path:t.target snapshot in
  let* () =
    Journal.initialize ~epoch t.jnl ~base:(Workspace.version ws0)
  in
  let* ws, _report = Recovery.open_store ~io:t.io ~repair:true t.target in
  t.ws <- ws;
  t.epoch <- epoch;
  t.suspect <- None;
  heal t;
  set_epoch_gauge epoch;
  Workspace.sync_cache t.ws t.cache;
  locate t

(* The leader's header no longer matches what we follow: either the
   journal rotated (base advanced) or a new leader's epoch began —
   adopting the new header epoch is how a follower starts following a
   freshly promoted leader. When our version covers the new base, fold
   our own journal into our snapshot: no gap (nothing above our version
   was dropped by the leader's rotate) and no replay. Otherwise we fell
   behind the rotation, and only a resync can catch us up. *)
let follow_header_change t ~base ~epoch =
  if epoch < t.epoch then
    (* Same forward-only rule as {!locate}: never re-follow a deposed
       leader, and never stamp a regressed epoch into our own files. *)
    Error
      (Error.invalid
         (Fmt.str
            "replica: feed %s rolled back to epoch %d below epoch %d — \
             refusing to follow a deposed leader"
            t.feed.feed_label epoch t.epoch))
  else if Workspace.version t.ws < base then Ok `Behind
  else begin
    let* () = Recovery.snapshot ~io:t.io ~epoch ~store:t.target t.ws in
    (* Fold the in-memory history as a reopen of our files would, so a
       follower that never resyncs keeps its commit log bounded by the
       leader's rotation threshold. The cache catches up first, while
       the history it needs is still held. *)
    Workspace.sync_cache t.ws t.cache;
    t.ws <-
      { t.ws with
        Workspace.log = Commit_log.of_version (Workspace.version t.ws) };
    t.base <- base;
    t.epoch <- epoch;
    t.suspect <- None;
    (* The quarantined record (if any) lived in the journal the leader
       just rotated away; with it gone, a degraded follower is whole
       again — heal-under-rotation. *)
    heal t;
    set_epoch_gauge epoch;
    M.Counter.incr c_rotations;
    Ok `Rotated
  end

(* One CRC-valid leader frame at leader offset [off] (on a push stream,
   the stream's own position), for both the pull and the push path. A
   record is validated and ingested. A header is a barrier — the first
   frame of a journal that appeared, or, on a push stream, a rotation's
   new journal — after which tailing re-anchors at the header's end.
   [`Behind] and [`Suspect]: the frame cannot be taken, and the
   caller's discipline decides what happens next. *)
let take_frame t ~off payload =
  match Journal.record_of_payload payload with
  | Ok record -> (
      match ingest t ~off ~payload record with
      | Ok applied ->
          t.suspect <- None;
          heal t;
          Ok (`Record applied)
      | Error e ->
          (* A shipped record the structural model refuses is
             corruption the checksum cannot see. *)
          Ok (`Suspect (Error.to_string e)))
  | Error m -> (
      let anchor () = t.leader_off <- frame_end 0 payload in
      match Journal.header_of_payload payload with
      | Error _ -> Ok (`Suspect m)
      | Ok (base, epoch) when base = t.base && epoch = t.epoch ->
          anchor ();
          Ok `Header
      | Ok (base, epoch) ->
          let* outcome = follow_header_change t ~base ~epoch in
          if outcome = `Rotated then anchor ();
          Ok outcome)

let quarantine t ~off reason =
  match t.suspect with
  | Some (o, attempts) when o = off ->
      if attempts + 1 >= t.refetch_limit then begin
        if t.status = Following then begin
          M.Counter.incr c_quarantines;
          Log.warn (fun m ->
              m "replica of %s: quarantining corrupt record at leader byte \
                 %d after %d refetches: %s"
                t.feed.feed_label off (attempts + 1) reason);
          t.status <-
            Degraded
              (Fmt.str "corrupt leader record at byte %d: %s" off reason)
        end
      end
      else begin
        M.Counter.incr c_refetches;
        t.suspect <- Some (o, attempts + 1)
      end
  | _ ->
      M.Counter.incr c_refetches;
      t.suspect <- Some (off, 1)

let poll t =
  if t.status = Promoted then
    Error (Error.invalid "replica: promoted; serve writes instead of polling")
  else begin
    M.Counter.incr c_polls;
    M.time h_poll_ns @@ fun () ->
    let* chunk = t.feed.fetch_journal ~off:t.leader_off in
    let frames, _clean, _torn =
      Journal.decode_frames ~off0:t.leader_off chunk
    in
    let rec consume acc = function
      | [] -> Ok (acc, [])
      | (off, payload) :: rest -> (
          let* taken = take_frame t ~off payload in
          match taken with
          | `Record applied ->
              let records = acc.records + 1 in
              consume { acc with records; applied = acc.applied + applied } rest
          | `Header -> consume acc rest
          | `Rotated -> consume { acc with rotated = true } rest
          | `Behind ->
              let* () = resync t in
              Ok ({ acc with resynced = true }, [])
          | `Suspect m ->
              (* Refetch before trusting our own read of it; after
                 [refetch_limit] identical failures, quarantine and keep
                 serving. *)
              quarantine t ~off m;
              Ok (acc, rest))
    in
    let* acc, remaining = consume no_progress frames in
    let* acc =
      if acc.records > 0 then begin
        (* One durability point per poll for everything ingested. *)
        let* () = make_durable t in
        Workspace.sync_cache t.ws t.cache;
        Ok acc
      end
      else begin
        (* No progress: probe the header for a rotation or a new
           leader's epoch — the 1 KB read that keeps idle polls from
           re-reading the journal. *)
        let* head = t.feed.fetch_head () in
        match header_of_bytes head with
        | Some (base, epoch) when base <> t.base || epoch <> t.epoch -> (
            let* outcome = follow_header_change t ~base ~epoch in
            match outcome with
            | `Rotated ->
                let* () = locate t in
                Ok { acc with rotated = true }
            | `Behind ->
                let* () = resync t in
                Ok { acc with resynced = true })
        | Some _ | None -> Ok acc
      end
    in
    let lag = List.length remaining in
    M.Gauge.set g_lag (float_of_int lag);
    Ok { acc with lag_records = lag }
  end

let rec poll_until_idle ?(max_rounds = 1000) t =
  let* p = poll t in
  if (p.records > 0 || p.rotated || p.resynced) && max_rounds > 1 then
    let* rest = poll_until_idle ~max_rounds:(max_rounds - 1) t in
    Ok
      {
        records = p.records + rest.records;
        applied = p.applied + rest.applied;
        rotated = p.rotated || rest.rotated;
        resynced = p.resynced || rest.resynced;
        lag_records = rest.lag_records;
      }
  else Ok p

let create ?(io = Fsio.default) ?cache_mode ?(refetch_limit = 3) ~feed ~target
    () =
  let jnl = Journal.create ~io (Journal.journal_path target) in
  let* existing = io.Fsio.read target in
  let* ws, own_epoch =
    match existing with
    | Some _ ->
        (* Resume a previous follower's files: its own snapshot ⊕
           journal is a valid store, opened exactly like a leader's. *)
        let* ws, report = Recovery.open_store ~io ~repair:true target in
        Ok (ws, report.Recovery.epoch)
    | None ->
        let* snapshot = feed.fetch_snapshot () in
        let* ws0 = Result.map_error Error.corrupt (Store.load snapshot) in
        let* () = Fsio.atomic_write io ~path:target snapshot in
        let* () = Journal.initialize jnl ~base:(Workspace.version ws0) in
        let* ws, report = Recovery.open_store ~io ~repair:true target in
        Ok (ws, report.Recovery.epoch)
  in
  let cache = Workspace.attach_cache ?mode:cache_mode ws in
  let t =
    {
      io;
      feed;
      target;
      jnl;
      refetch_limit = max 1 refetch_limit;
      cache;
      ws;
      base = Workspace.version ws;
      epoch = own_epoch;
      leader_off = 0;
      status = Following;
      suspect = None;
      unsynced = false;
    }
  in
  let* () = locate t in
  Ok t

(* --- push-mode streaming ----------------------------------------------- *)

(* The long-lived subscription: the leader pushes raw journal frames as
   they land and the follower acks its durable position back on the
   same socket. The stream carries no offsets — bytes are contiguous
   from the subscribed position, so the follower tracks them
   arithmetically, exactly as it does for a file read. Anything that
   breaks that contiguity (rotation, epoch change, a corrupt or
   unparseable frame, a severed link) closes the stream; the stateless
   pull path then re-finds footing and the follower resubscribes. *)
type push = {
  push_sock : string;
  push_fd : Unix.file_descr;
  push_net : Netio.net;
  push_stream : Netio.Stream.t;
  push_chunk : Bytes.t;
  mutable push_alive : bool;
}

let push_alive p = p.push_alive

let push_close p =
  if p.push_alive then begin
    p.push_alive <- false;
    try Unix.close p.push_fd with Unix.Unix_error _ -> ()
  end

let transient ~sock msg = Error.io ~op:Error.Read ~path:sock ~transient:true msg

let subscribe ?(net = Netio.default_net) t ~sock =
  if t.status = Promoted then
    Error (Error.invalid "replica: promoted; serve writes instead of tailing")
  else
    let* fd = Netio.connect ~sock in
    let p =
      {
        push_sock = sock;
        push_fd = fd;
        push_net = net;
        push_stream = Netio.Stream.create ();
        push_chunk = Bytes.create 65536;
        push_alive = true;
      }
    in
    let fail msg =
      push_close p;
      Error (transient ~sock ("replica: " ^ msg))
    in
    match
      net.Netio.net_send fd
        (Journal.frame (request_payload (Subscribe t.leader_off)))
    with
    | exception Unix.Unix_error (e, _, _) ->
        fail ("subscribe: " ^ Unix.error_message e)
    | () -> (
        let rec handshake () =
          match Netio.Stream.next p.push_stream with
          | `Frame payload -> Ok payload
          | `Corrupt m -> Error m
          | `Awaiting -> (
              match net.Netio.net_recv fd p.push_chunk with
              | exception
                  Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                  handshake ()
              | exception Unix.Unix_error (e, _, _) ->
                  Error (Unix.error_message e)
              | 0 -> Error "stream closed during the handshake"
              | k ->
                  Netio.Stream.feed p.push_stream p.push_chunk k;
                  handshake ())
        in
        match handshake () with
        | Error m -> fail ("subscribe: " ^ m)
        | Ok payload -> (
            match reply_of_payload payload with
            | Some (Pushing (base, epoch)) ->
                if t.leader_off > 0 && (base <> t.base || epoch <> t.epoch)
                then
                  (* The leader rotated or a new epoch began since our
                     position was taken: the byte stream would not be
                     contiguous with what we hold. The pull path adopts
                     the change, then we resubscribe. *)
                  fail
                    (Fmt.str
                       "subscribe: leader is at (base %d, epoch %d) but this \
                        follower holds (base %d, epoch %d); catch up through \
                        the pull feed first"
                       base epoch t.base t.epoch)
                else (
                  (* The header matches: ack our version, the position
                     the leader counts us at — after the durability point
                     an errored poll may have skipped. *)
                  match if t.unsynced then make_durable t else Ok () with
                  | Error e -> fail ("subscribe: " ^ Error.to_string e)
                  | Ok () -> (
                      match
                        net.Netio.net_send fd
                          (Journal.frame (ack_payload (Workspace.version t.ws)))
                      with
                      | exception Unix.Unix_error (e, _, _) ->
                          fail ("subscribe: " ^ Unix.error_message e)
                      | () -> Ok p))
            | Some (Refused m) -> fail ("subscribe refused: " ^ m)
            | Some Ready | None -> fail "subscribe: bad handshake frame"))

let push_poll ?(timeout = 0.05) t p =
  if t.status = Promoted then
    Error (Error.invalid "replica: promoted; serve writes instead of polling")
  else if not p.push_alive then
    Error (transient ~sock:p.push_sock "replica: push stream closed")
  else begin
    M.Counter.incr c_polls;
    M.time h_poll_ns @@ fun () ->
    let fail msg =
      push_close p;
      Error (transient ~sock:p.push_sock ("replica: push stream: " ^ msg))
    in
    (* Frames may already be buffered from a read that overshot (the
       handshake chunk often carries the first pushed bytes); drain
       them without blocking. Otherwise recv only when select vouches
       for the socket, or the poll would wedge on a quiet link. A frame
       begun but not finished within the wait means bytes were lost on
       the link: fail the stream so the pull path takes over, instead
       of polling a frame that can never complete. *)
    let ready = Netio.Stream.ready p.push_stream in
    let fed =
      match Unix.select [ p.push_fd ] [] [] (if ready then 0. else timeout) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> Ok ()
      | [], _, _ ->
          if ready || not (Netio.Stream.pending p.push_stream) then Ok ()
          else Error "stalled mid-frame"
      | _ :: _, _, _ -> (
          match p.push_net.Netio.net_recv p.push_fd p.push_chunk with
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              Ok ()
          | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
          | 0 -> Error "closed by the leader"
          | k ->
              Netio.Stream.feed p.push_stream p.push_chunk k;
              Ok ())
    in
    match fed with
    | Error m -> fail m
    | Ok () -> (
        (* Drain every complete frame buffered so far; errors surface
           after the durability point below so records ingested before
           a bad frame are not lost with it. *)
        let acc = ref no_progress in
        let failure = ref None in
        let rec consume () =
          if !failure = None then
            match Netio.Stream.next p.push_stream with
            | `Awaiting -> ()
            | `Corrupt m -> failure := Some ("corrupt frame: " ^ m)
            | `Frame payload ->
                (* No in-band refetch on a stream: a frame it cannot
                   take fails it, and the pull path re-fetches under its
                   refetch/quarantine discipline or resyncs. *)
                (match take_frame t ~off:t.leader_off payload with
                | Error e -> failure := Some (Error.to_string e)
                | Ok (`Suspect m) -> failure := Some ("unusable frame: " ^ m)
                | Ok `Behind -> failure := Some "fell behind a rotation"
                | Ok `Header -> ()
                | Ok `Rotated -> acc := { !acc with rotated = true }
                | Ok (`Record applied) ->
                    M.Counter.incr c_push_frames;
                    acc :=
                      { !acc with
                        records = !acc.records + 1;
                        applied = !acc.applied + applied });
                consume ()
        in
        consume ();
        let* () =
          if !acc.records > 0 then begin
            (* One durability point per poll, as the pull path does —
               then ack the new durable position upstream. *)
            let* () = make_durable t in
            Workspace.sync_cache t.ws t.cache;
            (if !failure = None then
               match
                 p.push_net.Netio.net_send p.push_fd
                   (Journal.frame (ack_payload (Workspace.version t.ws)))
               with
               | exception Unix.Unix_error _ -> push_close p
               | () -> ());
            Ok ()
          end
          else Ok ()
        in
        match !failure with Some m -> fail m | None -> Ok !acc)
  end

(* The resilient driver: stream while the subscription holds; on any
   drop, catch up through the stateless pull path (which absorbs
   rotations, epoch changes and suspect frames), then resubscribe from
   the follower's own position with seeded backoff. *)
let follow_push ?net ?(policy = Resilience.Policy.default)
    ?(clock = Resilience.Clock.real) ?(poll_timeout = 0.05)
    ?(should_stop = fun (_ : t) -> false) t ~sock =
  let rec reconnect attempt total =
    if should_stop t || t.status = Promoted then Ok total
    else
      match subscribe ?net t ~sock with
      | Ok p ->
          if attempt > 0 then M.Counter.incr c_push_reconnects;
          stream p total
      | Error _ -> fallback attempt total
  and stream p total =
    if should_stop t then begin
      push_close p;
      Ok total
    end
    else
      match push_poll ~timeout:poll_timeout t p with
      | Ok prog -> stream p (total + prog.records)
      | Error _ -> fallback 0 total
  and fallback attempt total =
    M.Counter.incr c_push_fallbacks;
    let total =
      match poll_until_idle t with
      | Ok prog -> total + prog.records
      | Error _ -> total
    in
    if should_stop t then Ok total
    else begin
      clock.Resilience.Clock.sleep_ns
        (Resilience.Policy.backoff_ns policy ~attempt:(attempt + 1));
      reconnect (attempt + 1) total
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
      Ok
        {
          d_version = version;
          d_epoch = r.Journal.epoch;
          d_offset = r.Journal.clean_bytes;
        }
  | None -> (
      let* c = io.Fsio.read target in
      match c with
      | None -> Error (Error.invalid (Fmt.str "no such store: %s" target))
      | Some c ->
          let* ws = Result.map_error Error.corrupt (Store.load c) in
          Ok { d_version = Workspace.version ws; d_epoch = 0; d_offset = 0 })

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
  M.time h_promote_ns @@ fun () ->
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
  t.ws <- ws;
  t.epoch <- epoch;
  t.status <- Promoted;
  set_epoch_gauge epoch;
  Workspace.sync_cache t.ws t.cache;
  Ok (ws, epoch)
