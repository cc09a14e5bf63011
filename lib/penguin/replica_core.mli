(** The decision core of a journal-shipping follower ({!Replica}): where
    it stands in the leader's journal, what it holds, and what to do
    with each answer from the leader and from its own files, as one step
    function from events to actions.

    The core performs no I/O. It never touches a socket, a file, a feed
    or the clock: the driver ({!Replica}) carries out every {!action}
    and reports what came of it as the next {!event}. That is what lets
    a seeded simulator run followers against a model leader — fetch
    failures, stream faults, torn writes, crashes, a promotion — and
    check the replication invariants on each.

    Pull and push are one state machine. A pull fetch's frames and a
    push stream's frames are the same {!Frames} event and go through the
    same ingest path: each record is validated in memory
    ({!Recovery.apply_entry}), then appended to the follower's own
    journal; a batch ends at one durability point (one fsync), and only
    then is the new version acked on a stream. A header frame decides
    between following a rotation in place (fold our journal into our
    snapshot), a resync from the leader's snapshot (a rotation we fell
    behind, or any higher epoch), and refusing a deposed leader (a lower
    epoch). A journal compacted by an older leader, which rendered its
    snapshot while later windows appended, re-presents the records
    above its base: records at or below the follower's version that
    follow a header barrier, each continuing the versions before it,
    are passed over on either path, advancing the leader offset.
    Elsewhere on a stream such a record is a duplicate and breaks it.

    A failed write or fsync on the follower's own journal marks it dirty:
    it is cut back to its clean length before anything else is appended,
    and the failure is returned, never mistaken for a corrupt leader
    frame. *)

val src : Logs.src

type status =
  | Following  (** tailing normally (also while awaiting a journal) *)
  | Degraded of string
      (** a corrupt shipped record is quarantined; serving continues at
          the last good position, polling continues (re-fetching) *)
  | Promoted  (** writable; the driver refuses to poll *)

type progress = {
  records : int;  (** leader journal records ingested this round *)
  applied : int;  (** commit-log entries applied to the workspace *)
  rotated : bool;  (** followed a leader rotation barrier in place *)
  resynced : bool;  (** fell back to a full snapshot resync *)
  lag_records : int;  (** complete leader records seen but not applied *)
}

val no_progress : progress

(** Why a round failed, by origin: a driver that retries routes on it. *)
type fault =
  | Feed of Error.t  (** a fetch, the stream, or the leader's bytes *)
  | Own of Error.t  (** a write, fsync, fold or install on our own files *)
  | Deposed of Error.t
      (** the feed is at a lower epoch than ours: a deposed leader *)

type event =
  | Poll  (** a pull round begins *)
  | Frames of { pushed : bool; frames : string list }
      (** complete, checksum-valid leader frame payloads, contiguous from
          the follower's {!offset}: a journal fetch's answer, or what a
          push stream carried ([pushed]; a push round begins) *)
  | Head of (int * int) option
      (** the leader journal's [(base, epoch)], if it has a header *)
  | Snapshot of string * Workspace.t
      (** the leader's store document, and the workspace it loads as *)
  | Fetch_failed of Error.t  (** a feed fetch failed *)
  | Stream_opened of int * int
      (** a subscription's handshake named the leader's [(base, epoch)];
          a push round begins *)
  | Stream_lost of string
      (** the stream broke: closed, stalled mid-frame, corrupt framing *)
  | Wrote of (unit, Error.t) result
      (** the result of the last {!Append}, {!Truncate}, {!Fsync},
          {!Fold} or {!Install} *)

type action =
  | Fetch_journal of int  (** leader journal bytes from this offset *)
  | Fetch_head  (** the leader journal's header *)
  | Fetch_snapshot  (** the leader's store document *)
  | Append of string  (** these frame bytes onto our journal *)
  | Truncate of int  (** our journal back to this clean length *)
  | Fsync  (** our journal *)
  | Fold of int * Workspace.t
      (** our journal into a snapshot of this workspace, the fresh
          journal stamped with this epoch ({!Recovery.snapshot}); the
          driver syncs its cache to the workspace first *)
  | Install of string * int * int
      (** restart our files from this leader snapshot: a journal based
          at the second int, stamped with the epoch (the third) *)
  | Ack of int  (** send [(ack V)] on the stream, if one is open *)
  | Close_stream
  | Fail of fault  (** the round fails with this, once all else is done *)

type state

val bootstrap :
  refetch_limit:int ->
  label:string ->
  doc:string ->
  Workspace.t ->
  state * action list
(** A follower with no files yet, from the leader's store document and
    its loaded workspace: the first actions install it. [label] names
    the feed in errors; [refetch_limit] is how many times a suspect
    pulled frame is refetched before quarantine (at least once). *)

val resume :
  refetch_limit:int ->
  label:string ->
  Workspace.t ->
  Recovery.report ->
  Journal.replay ->
  state * action list
(** A follower reopened from its own files: their workspace and
    {!Recovery.open_store} report (its snapshot version is taken as the
    leader base last followed, its epoch as the epoch followed) and the
    replay of their journal (its clean length and the position it
    records). Files whose journal records less than they reopen at, or
    an epoch other than the report's, are rewritten (a fold) before
    anything is acked. The first actions
    locate the follower in the leader's journal: one read from byte 0
    that adopts the header and passes over the records it holds,
    stopping at the first it lacks. *)

val step : state -> event -> state * action list
(** The actions come in the order they must be carried out; at most one
    of them ({!Fetch_journal}, {!Fetch_head}, {!Fetch_snapshot} or a
    write) has an answer, which is the next event. A round is over when
    a step returns no such action. *)

val promoted : state -> Workspace.t -> epoch:int -> state
(** The driver promoted the follower's files: it is writable at this
    workspace and epoch, and follows no more. *)

val workspace : state -> Workspace.t
val epoch : state -> int
val status : state -> status

val offset : state -> int
(** Leader journal bytes consumed: the tailing cursor, and where a
    subscription starts. *)

val progress : state -> progress
(** What the current (or last) round achieved. *)
