let src = Logs.Src.create "penguin.replica" ~doc:"journal-shipping follower"

module Log = (val Logs.src_log src : Logs.LOG)
module M = Obs.Metrics

let c_applied = M.counter "replica.applied_records"
let c_refetches = M.counter "replica.refetches"
let c_resyncs = M.counter "replica.resyncs"
let c_rotations = M.counter "replica.rotations_followed"
let c_quarantines = M.counter "replica.quarantines"
let c_push_frames = M.counter "shipper.push.frames"
let g_lag = M.gauge "replica.lag_records"
let g_epoch = M.gauge "replica.epoch"

type status = Following | Degraded of string | Promoted

type progress = {
  records : int; applied : int; rotated : bool; resynced : bool; lag_records : int }

let no_progress =
  { records = 0; applied = 0; rotated = false; resynced = false; lag_records = 0 }

type fault = Feed of Error.t | Own of Error.t | Deposed of Error.t

type event =
  | Poll
  | Frames of { pushed : bool; frames : string list }
  | Head of (int * int) option
  | Snapshot of string * Workspace.t
  | Fetch_failed of Error.t
  | Stream_opened of int * int
  | Stream_lost of string
  | Wrote of (unit, Error.t) result

type action =
  | Fetch_journal of int | Fetch_head | Fetch_snapshot
  | Append of string | Truncate of int | Fsync
  | Fold of int * Workspace.t | Install of string * int * int
  | Ack of int | Close_stream | Fail of fault

(* The own journal: [Dirty] after a failed append or fsync (bytes past
   [own_len] may exist, so it is truncated back before anything else is
   appended); [Unknown] after a failed fold or install (either file may
   be old or new, so both are rewritten by a fold). *)
type own = Clean | Dirty | Unknown

(* What the last I/O action's answer is for. *)
type wait =
  | Idle | Truncating | Syncing
  | Tail  (** a journal fetch *)
  | Locating  (** a journal fetch from byte 0 *)
  | Verify  (** the header fetch that vouches for the frames just fetched *)
  | Snap  (** a resync's snapshot fetch *)
  | Snap_head of string * Workspace.t  (** a resync's header fetch *)
  | Installing of Workspace.t * int * int  (** snapshot, leader base, epoch *)
  | Appending of Workspace.t * int * int  (** state after, frame bytes, entries *)
  | Folding of int * int  (** the leader base and epoch it adopts *)

type state = {
  label : string;
  refetch_limit : int;
  ws : Workspace.t;
  base : int;  (** leader journal base followed *)
  epoch : int;  (** leader epoch followed *)
  off : int;  (** leader journal bytes consumed *)
  own_len : int;  (** the own journal's clean length *)
  own : own;
  unsynced : bool;  (** own appends not yet fsynced *)
  suspect : (int * int) option;  (** (offset, attempts) of a frame that failed *)
  status : status;
  pushed : bool;  (** this round's frames come off a push stream *)
  locating : bool;  (** this batch locates us: it stops at a record we lack *)
  barrier : int option;
      (** since the last header taken and before any record applied:
          the newest version passed over (the header's base at first) *)
  acked : int;  (** the last version acked on the current stream *)
  wait : wait;
  frames : string list;  (** the batch's frames not yet taken *)
  fault : fault option;  (** what ends this round once it is durable *)
  progress : progress;
}

let frame_len payload = 8 + String.length payload
let version st = Workspace.version st.ws

let transient st msg =
  Error.io ~op:Error.Read ~path:st.label ~transient:true ("replica: " ^ msg)

let deposed st epoch =
  Deposed
    (Error.invalid
       (Fmt.str "replica: feed %s is at epoch %d but this store has seen epoch \
                 %d — refusing to follow a deposed leader" st.label epoch st.epoch))

let heal st =
  match st.status with Degraded _ -> { st with status = Following } | _ -> st

let adopt st ~base ~epoch =
  M.Gauge.set g_epoch (float_of_int epoch);
  heal { st with base; epoch; suspect = None; own = Clean; unsynced = false }

let fold st ~base ~epoch =
  ({ st with wait = Folding (base, epoch) }, [ Fold (epoch, st.ws) ])

(* Mend a [Dirty] journal by cutting it back, an [Unknown] one by folding. *)
let repair st =
  if st.own = Dirty then ({ st with wait = Truncating }, [ Truncate st.own_len ])
  else fold st ~base:st.base ~epoch:st.epoch

(* The end of a round: repair the own journal, make what was ingested
   durable with one fsync, and only then ack it on a push stream. A
   round that failed repairs nothing: the next append does. *)
let rec settle st =
  if st.own <> Clean && st.fault = None then repair st
  else if st.own = Clean && st.unsynced then ({ st with wait = Syncing }, [ Fsync ])
  else
    let v = version st in
    let ack = st.pushed && st.own = Clean && v > st.acked in
    M.Gauge.set g_lag (float_of_int st.progress.lag_records);
    ( { st with wait = Idle; fault = None; acked = (if ack then v else st.acked) },
      (if ack then [ Ack v ] else []) @ Option.to_list (Option.map (fun f -> Fail f) st.fault) )

and stop st fault = settle { st with fault = Some fault; frames = [] }

(* A stream that can no longer be contiguous with our position closes. *)
and break st fault =
  let st, actions = stop { st with pushed = false } fault in
  (st, Close_stream :: actions)

and locate st = ({ st with off = 0; wait = Locating }, [ Fetch_journal 0 ])

(* Fetch the leader's snapshot and restart our files from it. At most
   once a round: a leader that keeps changing under it fails the round. *)
and resync st =
  if st.progress.resynced then
    stop st (Feed (transient st "the leader changed during a resync"))
  else begin
    M.Counter.incr c_resyncs;
    ( { st with wait = Snap; frames = []; pushed = false },
      (if st.pushed then [ Close_stream ] else []) @ [ Fetch_snapshot ] )
  end

(* A frame that cannot be taken. On a stream it breaks contiguity, so
   the stream closes; a pulled frame is refetched [refetch_limit] times
   before it is quarantined. *)
and suspect st reason =
  if st.pushed then
    break st (Feed (transient st ("push stream: unusable frame: " ^ reason)))
  else begin
    let st =
      match st.suspect with
      | Some (o, n) when o = st.off && n + 1 >= st.refetch_limit ->
          if st.status = Following then begin
            M.Counter.incr c_quarantines;
            Log.warn (fun m ->
                m "replica of %s: quarantining corrupt record at leader byte \
                   %d after %d refetches: %s"
                  st.label st.off (n + 1) reason);
            { st with
              status =
                Degraded
                  (Fmt.str "corrupt leader record at byte %d: %s" st.off reason) }
          end
          else st
      | Some (o, n) when o = st.off ->
          M.Counter.incr c_refetches;
          { st with suspect = Some (o, n + 1) }
      | _ ->
          M.Counter.incr c_refetches;
          { st with suspect = Some (st.off, 1) }
    in
    let lag = List.length st.frames - 1 in
    settle { st with frames = []; progress = { st.progress with lag_records = lag } }
  end

(* The one frame-ingest path, for pulled and pushed frames alike. *)
and next st =
  match st.frames with
  | [] -> settle st
  | payload :: rest -> (
      match Journal.record_of_payload payload with
      | Ok entries -> record st payload rest entries
      | Error m -> (
          match Journal.header_of_payload payload with
          | Ok (base, epoch) -> header st payload rest ~base ~epoch
          | Error _ -> suspect st m))

(* A record is validated in memory ({!Recovery.apply_entry}) before its
   frame is appended to our journal, so a record the structural model
   refuses never lands there. A record we already hold is passed over
   when it was pulled (the overlap a locate reads), or when it was
   pushed right after a header barrier and continues the versions passed
   over since: a journal compacted by an older leader re-presents the
   records above its base. Any other pushed record we hold — a
   duplicate — breaks the stream's contiguity and fails validation. *)
and record st payload rest entries =
  let vers = version st in
  let held = List.for_all (fun (e : Commit_log.entry) -> e.version <= vers) entries in
  let follows =
    match st.barrier, entries with
    | Some w, (e : Commit_log.entry) :: _ -> e.version = w + 1
    | _ -> false
  in
  if held && ((not st.pushed) || follows) then
    let last = List.fold_left (fun v (e : Commit_log.entry) -> max v e.version) 0 entries in
    next
      { st with
        off = st.off + frame_len payload;
        frames = rest;
        barrier = (if follows then Some last else st.barrier) }
  else if st.locating then settle { st with frames = [] }
  else
    match
      List.fold_left
        (fun acc e -> Result.bind acc (fun ws -> Recovery.apply_entry ws e))
        (Ok st.ws) entries
    with
    | Error e -> suspect st (Error.to_string e)
    | Ok _ when st.own <> Clean -> repair st
    | Ok ws ->
        ( { st with wait = Appending (ws, frame_len payload, List.length entries) },
          [ Append (Journal.frame payload) ] )

(* A header frame: the first frame of a journal we locate in, or a
   rotation's barrier on a push stream. Epochs only move forward: a
   lower one is a deposed leader, and a higher one always resyncs — our
   history past the new leader's start may not be its history, and the
   header cannot say. A base past our version is a rotation we fell
   behind, which only the snapshot can bridge; any other new base folds
   our journal into our snapshot in place. *)
and header st payload rest ~base ~epoch =
  if epoch < st.epoch then stop st (deposed st epoch)
  else if epoch > st.epoch || version st < base then resync st
  else if base = st.base && st.off <> 0 then suspect st "a repeated journal header"
  else
    let st = { st with off = frame_len payload; frames = rest; barrier = Some base } in
    if base = st.base then next st else fold st ~base ~epoch

let wrote st result =
  match st.wait, result with
  | Appending (ws, len, n), Ok () ->
      M.Counter.incr c_applied;
      if st.pushed then M.Counter.incr c_push_frames;
      let p = st.progress in
      next
        (heal
           { st with
             ws;
             off = st.off + len;
             own_len = st.own_len + len;
             unsynced = true;
             suspect = None;
             barrier = None;
             frames = List.tl st.frames;
             progress = { p with records = p.records + 1; applied = p.applied + n } })
  | Truncating, Ok () ->
      (* [Journal.truncate_torn] rewrites the clean prefix atomically:
         it is durable. *)
      next { st with own = Clean; unsynced = false }
  | Folding (base, epoch), Ok () ->
      let rotated = base <> st.base in
      if rotated then M.Counter.incr c_rotations;
      let v = version st in
      let ws = { st.ws with Workspace.log = Commit_log.of_version v } in
      let p = st.progress in
      next
        { (adopt { st with ws } ~base ~epoch) with
          own_len = Journal.header_length ~base:v ~epoch;
          progress = { p with rotated = p.rotated || rotated } }
  | Installing (ws, base, epoch), Ok () ->
      let st = adopt { st with ws } ~base ~epoch in
      locate
        { st with
          own_len = Journal.header_length ~base:(Workspace.version ws) ~epoch;
          progress = { st.progress with resynced = true } }
  | Syncing, Ok () -> settle { st with unsynced = false }
  | (Appending _ | Truncating | Syncing), Error e ->
      stop { st with own = Dirty } (Own e)
  | (Folding _ | Installing _), Error e -> stop { st with own = Unknown } (Own e)
  | _, _ -> (st, [])

let step st = function
  | Poll ->
      ( { st with pushed = false; progress = no_progress; wait = Tail },
        [ Fetch_journal st.off ] )
  | Frames { pushed = false; frames } when st.wait = Tail ->
      (* Pulled bytes are only ours to take if the journal they came from
         is still the one we follow: the header, read after them, says so
         (bases and epochs only move forward). The same read is the idle
         round's probe for a rotation, a new epoch or a deposed leader. *)
      ({ st with frames; wait = Verify }, [ Fetch_head ])
  | Frames { pushed; frames } ->
      let st = if pushed then { st with pushed; progress = no_progress } else st in
      next { st with frames; wait = Idle; locating = st.wait = Locating }
  | Head h -> (
      match st.wait, h with
      | Verify, Some (base, epoch) when base <> st.base || epoch <> st.epoch ->
          locate { st with frames = [] }
      | Verify, _ -> next { st with wait = Idle; locating = false }
      | Snap_head (doc, ws), _ ->
          let base, epoch = Option.value h ~default:(Workspace.version ws, 0) in
          if epoch < st.epoch then stop st (deposed st epoch)
          else
            ( { st with wait = Installing (ws, base, epoch) },
              [ Install (doc, Workspace.version ws, epoch) ] )
      | _ -> (st, []))
  | Snapshot (doc, ws) ->
      if st.wait <> Snap then (st, [])
      else ({ st with wait = Snap_head (doc, ws) }, [ Fetch_head ])
  | Fetch_failed e -> stop st (Feed e)
  | Stream_opened (base, epoch) ->
      let st = { st with pushed = true; acked = -1; progress = no_progress } in
      if st.off > 0 && (base <> st.base || epoch <> st.epoch) then
        (* The leader rotated or a new epoch began since our position
           was taken: the stream would not be contiguous with it. *)
        break st
          (Feed
             (transient st
                (Fmt.str "subscribe: leader is at (base %d, epoch %d) but this follower \
                          holds (base %d, epoch %d); catch up through the pull feed first"
                   base epoch st.base st.epoch)))
      else settle st
  | Stream_lost m ->
      stop { st with pushed = false } (Feed (transient st ("push stream: " ^ m)))
  | Wrote result -> wrote st result

let init ~refetch_limit ~label ws ~base ~epoch ~own_len ~own ~wait =
  M.Gauge.set g_epoch (float_of_int epoch);
  { label; refetch_limit = max 1 refetch_limit; ws; base; epoch; off = 0;
    own_len; own; unsynced = false; suspect = None; status = Following;
    pushed = false; locating = false; barrier = None; acked = -1; wait; frames = []; fault = None;
    progress = no_progress }

(* Files whose journal claims less than they reopen at (a crash between
   the two writes of a fold or an install: a lower version, or the old
   lineage's epoch under the new one's snapshot) are rewritten before
   anything is acked: a position failover would under-read is never
   acked. *)
let resume ~refetch_limit ~label ws (report : Recovery.report) (own : Journal.replay) =
  let durable =
    List.fold_left (fun v (e : Commit_log.entry) -> max v e.version) own.base own.entries
  in
  let own_state =
    if durable < Workspace.version ws || own.epoch <> report.epoch then Unknown else Clean
  in
  locate
    (init ~refetch_limit ~label ws ~base:report.snapshot_version ~epoch:report.epoch
       ~own_len:own.clean_bytes ~own:own_state ~wait:Idle)

let bootstrap ~refetch_limit ~label ~doc ws =
  ( init ~refetch_limit ~label ws ~base:(Workspace.version ws) ~epoch:0
      ~own_len:0 ~own:Unknown ~wait:(Snap_head (doc, ws)),
    [ Fetch_head ] )

let promoted st ws ~epoch =
  M.Gauge.set g_epoch (float_of_int epoch);
  { st with ws; epoch; status = Promoted }

let workspace st = st.ws
let epoch st = st.epoch
let status st = st.status
let offset st = st.off
let progress st = st.progress
