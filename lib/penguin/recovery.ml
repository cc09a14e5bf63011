open Relational

let src = Logs.Src.create "penguin.recovery" ~doc:"crash recovery of stores"

module Log = (val Logs.src_log src : Logs.LOG)

let ( let* ) = Result.bind

module M = Obs.Metrics

let m_open_ns = M.histogram "recovery.open_store_ns"
let m_persist_ns = M.histogram "recovery.persist_ns"
let m_opens = M.counter "recovery.opens"
let m_replayed_entries = M.counter "recovery.replayed_entries"

type report = {
  snapshot_version : int;
  replayed : int;
  version : int;
  epoch : int;
  torn_bytes : int;
  repaired : bool;
  journal : bool;
  snapshot_bytes : int;
}

let pp_report ppf r =
  if not r.journal then
    Fmt.pf ppf "snapshot v%d, no journal" r.snapshot_version
  else
    Fmt.pf ppf "snapshot v%d + %d replayed journal entr%s = v%d%s"
      r.snapshot_version r.replayed
      (if r.replayed = 1 then "y" else "ies")
      r.version
      (if r.torn_bytes > 0 then
         Fmt.str " (torn tail: %d byte(s) discarded%s)" r.torn_bytes
           (if r.repaired then ", repaired" else "")
       else "")

let apply_entry ?path ?record ws (e : Commit_log.entry) =
  (* Corruption during replay names the journal record it came from
     (when the caller knows which one) and the commit version it
     carried, so "this store is corrupt" arrives as "record N (vM) of
     this journal is corrupt". *)
  let corrupt fmt =
    Fmt.kstr
      (fun m ->
        match path with
        | Some path ->
            Error
              (Error.corrupt_record ~path ?record ~version:e.Commit_log.version
                 m)
        | None -> Error (Error.corrupt m))
      fmt
  in
  let* log =
    match Commit_log.append_entry ws.Workspace.log e with
    | Ok log -> Ok log
    | Error m -> corrupt "%s" m
  in
  match e.Commit_log.change with
  | Commit_log.Barrier _ -> Ok { ws with Workspace.log }
  | Commit_log.Delta d -> (
      let* db =
        match Database.apply_delta ws.Workspace.db d with
        | Ok db -> Ok db
        | Error err ->
            corrupt "recovery: replaying v%d (%s): %s" e.Commit_log.version
              e.Commit_log.kind
              (Database.error_to_string err)
      in
      (* Cross-check each replayed delta against the structural model of
         the state it produces: a journal that replays into an
         inconsistent database is mismatched or corrupt beyond what the
         checksums can see. *)
      match Structural.Integrity.check_delta ws.Workspace.graph db ~delta:d with
      | [] -> Ok { ws with Workspace.db; log }
      | v :: _ ->
          corrupt "recovery: replaying v%d (%s) breaks the structural model: %a"
            e.Commit_log.version e.Commit_log.kind
            Structural.Integrity.pp_violation v)

(* A writer takes the journal it found as its own, cut back to
   [clean_bytes]. Whatever lies past them is a crash or fault remnant
   (the writer holds the store lock), and appending after it would put
   the new record where replay never looks; the cut's atomic rewrite
   makes the name durable too. A journal kept as it is gets its name
   made durable: a cut or rotation whose directory fsync failed, here or
   in a process that died, renamed it in the cache only, and a crash
   would bring the old journal back under records appended now. *)
let claim jnl (r : Journal.replay) ~clean_bytes =
  if r.Journal.clean_bytes + r.Journal.torn_bytes > clean_bytes then
    Journal.truncate_torn jnl ~clean_bytes
  else Journal.sync_name jnl

(* [repair] defaults to [false]: a "torn tail" seen by a plain reader
   may be another process's append in flight, and rewriting the journal
   from under that writer would discard a commit it is about to report
   durable. Repair happens on the write path ({!persist}), which runs
   under the store's exclusive lock in the CLI; pass [~repair:true] only
   when holding that lock (or when provably the sole process). *)
let open_store ?(io = Fsio.default) ?(repair = false) ?cache store =
  Obs.Trace.with_span m_open_ns @@ fun () ->
  M.Counter.incr m_opens;
  (* An attached cache is replay-warmed: the journal entries applied
     below land in the workspace's log as real deltas, so syncing the
     cache afterwards patches it forward from wherever it was — a cache
     warmed before a crash catches up incrementally instead of being
     rebuilt (it falls back to invalidation when its position predates
     the snapshot). *)
  let synced ws report =
    Option.iter (fun c -> Workspace.sync_cache ws c) cache;
    ws, report
  in
  let* content = io.Fsio.read store in
  let* content =
    match content with
    | Some c -> Ok c
    | None -> Error (Error.invalid (Fmt.str "no such store: %s" store))
  in
  let* ws, snapshot_epoch =
    Result.map_error Error.corrupt (Store.load_snapshot content)
  in
  let snapshot_version = Workspace.version ws in
  let snapshot_bytes = String.length content in
  let jnl = Journal.create ~io (Journal.journal_path store) in
  let* r = Journal.replay jnl in
  match r with
  | None ->
      Ok
        (synced ws
           {
             snapshot_version;
             replayed = 0;
             version = snapshot_version;
             epoch = snapshot_epoch;
             torn_bytes = 0;
             repaired = false;
             journal = false;
             snapshot_bytes;
           })
  | Some r ->
      let* repaired =
        if not repair then Ok false
        else (
          if r.Journal.torn_bytes > 0 then
            Log.warn (fun m ->
                m "journal for %s has a torn tail (%d byte(s)); truncating"
                  store r.Journal.torn_bytes);
          let* () = claim jnl r ~clean_bytes:r.Journal.clean_bytes in
          Ok (r.Journal.torn_bytes > 0))
      in
      (* Entries at or below the snapshot's version are already folded
         into it (a rotate crash can leave such an overlap); replay the
         rest, whose versions must extend the snapshot densely. The walk
         goes record by record (not over the flattened entries) so an
         integrity failure can name the journal record it came from. *)
      let jpath = Journal.path jnl in
      let* ws, replayed =
        List.fold_left
          (fun acc (idx, (_off, entries)) ->
            let* ws, n = acc in
            List.fold_left
              (fun acc (e : Commit_log.entry) ->
                let* ws, n = acc in
                if e.Commit_log.version <= snapshot_version then Ok (ws, n)
                else
                  let* ws = apply_entry ~path:jpath ~record:idx ws e in
                  Ok (ws, n + 1))
              (Ok (ws, n)) entries)
          (Ok (ws, 0))
          (List.mapi (fun i frame -> i, frame) r.Journal.framed)
      in
      let version = Workspace.version ws in
      M.Counter.add m_replayed_entries replayed;
      Obs.Trace.tag "replayed" (string_of_int replayed);
      if replayed > 0 then
        Log.info (fun m ->
            m "recovered %s: snapshot v%d + %d journal entr%s = v%d" store
              snapshot_version replayed
              (if replayed = 1 then "y" else "ies")
              version);
      Ok
        (synced ws
           {
             snapshot_version;
             replayed;
             version;
             (* The newer of the two: a restart from another lineage's
                snapshot that crashed before its journal was rewritten
                left the old epoch in the journal header. *)
             epoch = max snapshot_epoch r.Journal.epoch;
             torn_bytes = r.Journal.torn_bytes;
             repaired;
             journal = true;
             snapshot_bytes;
           })

let snapshot ?(io = Fsio.default) ?(epoch = 0) ~store ws =
  Journal.rotate ~epoch
    (Journal.create ~io (Journal.journal_path store))
    ~snapshot_path:store ~snapshot:(Store.save ~epoch ws)
    ~base:(Workspace.version ws)

(* A follower's restart from its leader's snapshot. When our journal runs
   past the new snapshot it is cut back first (to its base, its epoch
   kept): a crash between the next two writes would otherwise reopen our
   history on top of the new snapshot. The leader's snapshot records its
   epoch, so a crash after it lands reopens in that epoch. *)
let install ?(io = Fsio.default) ~epoch ~base ~store doc =
  let jnl = Journal.create ~io (Journal.journal_path store) in
  let* old = Journal.replay jnl in
  let* () =
    match old with
    | Some r when List.exists (fun (e : Commit_log.entry) -> e.version > base) r.Journal.entries ->
        Journal.initialize ~epoch:r.Journal.epoch jnl ~base:r.Journal.base
    | _ -> Ok ()
  in
  let* () = Fsio.atomic_write io ~path:store doc in
  Journal.initialize ~epoch jnl ~base

type persisted = {
  rotated : bool;
  rotate_error : Error.t option;
}

(* --- the durable append ----------------------------------------------- *)

module Appender = struct
  (* The one write path. Opening an appender validates the journal with
     one full replay — epoch fence, tail check, torn-tail repair, or a
     fresh journal for a plain exported store — after which it trusts
     its own cursor. That trust is sound only while the caller holds the
     store's exclusive lock ({!Fsio.with_lock}) for the appender's whole
     lifetime, which is what rules out concurrent writers. The server
     keeps one appender for its life; {!persist} is the one-shot case:
     open at the caller's base, append once, drop the handle. *)

  type t = {
    io : Fsio.t;
    store : string;
    jnl : Journal.t;
    epoch : int;
    mutable journal_bytes : int;  (* the journal's length, header included *)
    mutable header_bytes : int;  (* its header frame's *)
    mutable snapshot_bytes : int;  (* the store document's under it *)
    mutable tail : int;  (* newest version the journal holds *)
    mutable dirty : dirty;
  }

  (* What a failed write may have left past the tail. *)
  and dirty =
    | Clean
    | Rotate_failed  (* a rotation's files, mid-rewrite *)
    | Uncut of string  (* the record of an append whose cut failed *)

  let m_install_ns = M.histogram "recovery.snapshot_install_ns"
  let m_appends = M.counter "recovery.appender_appends"
  let m_revalidations = M.counter "recovery.appender_revalidations"
  let g_journal_bytes = M.gauge "recovery.journal_bytes"
  let g_snapshot_bytes = M.gauge "recovery.snapshot_bytes"

  (* The counts the rotation rule reads change only here, so the
     gauges show an operator how far the next rotation is. *)
  let set_journal t ~bytes ~header =
    t.journal_bytes <- bytes;
    t.header_bytes <- header;
    M.Gauge.set g_journal_bytes (float_of_int bytes)

  let set_snapshot t bytes =
    t.snapshot_bytes <- bytes;
    M.Gauge.set g_snapshot_bytes (float_of_int bytes)

  (* The journal's tail must still be the version [at] the caller's
     workspace was prepared against: if another process slipped a commit
     in (the store lock was not held, or not held wide enough),
     appending would journal two entries with the same version and
     wedge every later open. Refuse cleanly instead. *)
  let advanced ~store ~tail ~at =
    Error.conflict
      (Fmt.str
         "store %s advanced to v%d but this commit was prepared against v%d \
          (concurrent commit?); reopen the store and retry"
         store tail at)

  (* One full replay against version [at]; returns the journal's length
     once claimed, its header's and its epoch. A journal-less store gets
     a journal based at [at]. Records past [at]
     are refused as a concurrent commit, with one exception: a single
     record whose payload is [own], the record of this writer's own
     failed append, just failed or left by a cut that failed too. It is
     cut off, never kept: the failed fsync may have dropped its pages,
     and a later fsync does not write them back. *)
  let validate ?expect_epoch ?own ~store jnl ~at =
    let* r = Journal.replay jnl in
    match r with
    | None ->
        let epoch = Option.value expect_epoch ~default:0 in
        let* () = Journal.initialize ~epoch jnl ~base:at in
        let header = Journal.header_length ~base:at ~epoch in
        Ok (header, header, epoch)
    | Some r ->
        (* Epoch fencing: if a follower promoted since this handle's
           store was opened, the journal header carries a newer epoch
           and this process is the deposed leader. Appending anyway
           would fork history, so refuse non-retryably: only a fresh
           open (which adopts the new epoch and state) may write. *)
        let* () =
          match expect_epoch with
          | Some e when e <> r.Journal.epoch ->
              Error
                (Error.invalid
                   (Fmt.str
                      "fenced — store %s is at epoch %d but this handle was \
                       opened at epoch %d (a replica promoted); reopen to \
                       resume against the new leader state"
                      store r.Journal.epoch e))
          | _ -> Ok ()
        in
        let top base entries =
          List.fold_left
            (fun acc (e : Commit_log.entry) -> max acc e.Commit_log.version)
            base entries
        in
        let past = List.filter (fun (_, es) -> top at es > at) r.Journal.framed in
        let tail = top r.Journal.base r.Journal.entries in
        let* clean_bytes =
          match past with
          | [] when tail = at -> Ok r.Journal.clean_bytes
          | [ (off, es) ]
            when r.Journal.base <= at
                 && Some (Journal.record_payload es) = own ->
              Ok off
          | _ -> Error (advanced ~store ~tail ~at)
        in
        let cut = r.Journal.clean_bytes + r.Journal.torn_bytes - clean_bytes in
        if cut > 0 then
          Log.warn (fun m ->
              m "journal for %s: cutting %d byte(s) past v%d (torn tail or \
                 failed append)" store cut at);
        let* () = claim jnl r ~clean_bytes in
        let header =
          match r.Journal.framed with
          | (off, _) :: _ -> off
          | [] -> r.Journal.clean_bytes
        in
        Ok (clean_bytes, header, r.Journal.epoch)

  (* Without the size of the snapshot the caller opened, the store is
     read once for it. *)
  let open_at ~io ?snapshot_bytes ?expect_epoch ?own ~store at =
    let* snapshot =
      match snapshot_bytes with
      | Some n -> Ok n
      | None -> (
          let* doc = io.Fsio.read store in
          match doc with
          | Some doc -> Ok (String.length doc)
          | None -> Error (Error.invalid (Fmt.str "no such store: %s" store)))
    in
    let jnl = Journal.create ~io (Journal.journal_path store) in
    let* bytes, header, epoch = validate ?expect_epoch ?own ~store jnl ~at in
    let t =
      { io; store; jnl; epoch; journal_bytes = bytes;
        header_bytes = header; snapshot_bytes = snapshot; tail = at;
        dirty = Clean }
    in
    set_journal t ~bytes ~header;
    set_snapshot t snapshot;
    Ok t

  let create ?(io = Fsio.default) ?snapshot_bytes ?expect_epoch ~store ws =
    open_at ~io ?snapshot_bytes ?expect_epoch ~store
      (Workspace.version ws)

  let tail t = t.tail

  (* The workspace's commits after [since], refused when its log no
     longer holds that history. Pure, so it runs before any I/O. *)
  let held_since ~since ws =
    let truncated = Commit_log.truncated ws.Workspace.log in
    if since < truncated then
      Error
        (Error.invalid
           (Fmt.str "history since v%d is not held (log truncated at v%d)"
              since truncated))
    else Ok (Commit_log.entries_since ws.Workspace.log since)

  (* Cut what a failed write left past the tail: torn bytes, or the
     whole record [own]. *)
  let revalidate ?own t =
    M.Counter.incr m_revalidations;
    let* bytes, header, _epoch =
      validate ~expect_epoch:t.epoch ?own ~store:t.store t.jnl ~at:t.tail
    in
    set_journal t ~bytes ~header;
    Ok ()

  let write_entries t entries ws =
    let* () =
      (* The cost of a replay returns only after a fault whose cut
         failed, not per append. *)
      let cut own =
        let* () = revalidate ?own t in
        t.dirty <- Clean;
        Ok ()
      in
      match t.dirty with
      | Clean -> Ok ()
      | Rotate_failed -> cut None
      | Uncut own -> cut (Some own)
    in
    (* A window of empty sessions writes nothing: an empty record would
       pass over nothing on a follower and still break its barrier. *)
    if entries = [] then Ok ()
    else
      let payload = Journal.record_payload entries in
      match Journal.append_frame t.jnl (Journal.frame payload) with
      | Error e ->
          (* The record may lie whole in the file with its pages dropped
             by the failed fsync, and it is reported failed: cut it back
             off before reporting, so no reopen finds it. Should the cut
             fail too, the next write cuts it. *)
          if Result.is_error (revalidate ~own:payload t) then
            t.dirty <- Uncut payload;
          Error e
      | Ok n ->
          M.Counter.incr m_appends;
          set_journal t ~bytes:(t.journal_bytes + n) ~header:t.header_bytes;
          t.tail <- Workspace.version ws;
          Ok ()

  (* A rotation is paid for by the journal it folds: it is due once the
     records past the header hold at least as many bytes as the
     snapshot under them (and so at least one record), and it renders
     the workspace last written, so every rotation's base is past the
     last one's. Rewriting the snapshot then costs each byte appended
     at most one more byte written, and an open reads at most about as
     much journal as snapshot. *)
  let due t =
    let records = t.journal_bytes - t.header_bytes in
    records > 0 && records >= t.snapshot_bytes

  (* The append's fsync is the durability point. A rotation failure past
     it is a warning, not a failed commit — the journal is intact and a
     later rotation retries — but it may have left the files mid-rotate,
     so the cursor is rebuilt before the next append. Rotation preserves
     the epoch: folding the journal is not a leadership change. *)
  let rotate t ws =
    if not (due t && Workspace.version ws = t.tail) then
      { rotated = false; rotate_error = None }
    else
      Obs.Trace.with_span m_install_ns @@ fun () ->
      let doc = Store.save ~epoch:t.epoch ws in
      match
        Journal.rotate ~epoch:t.epoch t.jnl ~snapshot_path:t.store ~snapshot:doc
          ~base:t.tail
      with
      | Ok () ->
          let header = Journal.header_length ~base:t.tail ~epoch:t.epoch in
          set_journal t ~header ~bytes:header;
          set_snapshot t (String.length doc);
          { rotated = true; rotate_error = None }
      | Error e ->
          t.dirty <- Rotate_failed;
          { rotated = false; rotate_error = Some e }

  let write t ~since ws =
    Obs.Trace.with_span m_persist_ns @@ fun () ->
    let* entries = held_since ~since ws in
    if since <> t.tail then
      Error (advanced ~store:t.store ~tail:t.tail ~at:since)
    else write_entries t entries ws

  let append t ~since ws =
    let* () = write t ~since ws in
    Ok (rotate t ws)
end

let persist ?(io = Fsio.default) ?snapshot_bytes ?expect_epoch ~store ~since
    ws =
  Obs.Trace.with_span m_persist_ns @@ fun () ->
  let* entries = Appender.held_since ~since ws in
  (* A retried persist whose earlier attempt failed, and failed to cut
     its record back off, finds that record one past [since]. *)
  let* t =
    Appender.open_at ~io ?snapshot_bytes ?expect_epoch
      ~own:(Journal.record_payload entries) ~store since
  in
  let* () = Appender.write_entries t entries ws in
  Ok (Appender.rotate t ws)
