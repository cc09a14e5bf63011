(** Journal-shipping replication: a follower that tails a leader's
    journal, replays each shipped record through the {!Recovery} path
    into its own snapshot ⊕ journal, keeps an attached
    {!Viewobject.Cache} warm, and serves read-only view-object queries
    at an explicit replication position — then promotes to a writable
    leader from its last durable record when the leader is lost.

    The unit of shipping is the {!Journal} frame: a follower fetches
    raw bytes from the leader's journal at its consumed offset
    ({!Fsio.t.read_from} for the file feed; {!Shipper} for the socket
    feed), verifies each frame's checksum and parse, {e validates the
    deltas in memory} against the structural model
    ({!Recovery.apply_entry}), and only then appends the identical
    frame bytes to its own journal. The replica's store is therefore
    always openable by the ordinary {!Recovery.open_store} — promotion
    is just that open (with repair) plus an epoch-bumping rotation, and
    the bumped epoch fences the deposed leader: its next
    {!Recovery.persist} under [expect_epoch] refuses.

    Failure handling follows the torn-tail discipline: torn bytes at
    the leader's tail are an append in flight and are simply not
    consumed yet; a checksum-valid frame that fails to parse or to
    validate is re-fetched a bounded number of times and then
    {e quarantined} — the replica drops to [Degraded], keeps serving
    reads at its last good position, and keeps polling (a leader
    rotation heals it) — it never wedges and never appends unverified
    bytes to its own journal. A failed write or fsync on its own journal
    is returned as the error it is, and the journal is cut back to its
    clean length before the next append.

    Every decision is {!Replica_core}'s: this module is its driver —
    feeds, files, sockets and the cache — and the feed wire format. *)

(** How a follower reaches the leader's bytes. {!file_feed} reads the
    leader's files directly (shared filesystem); {!Shipper.feed} speaks
    the socket protocol. All three calls are stateless on the feed —
    position lives in the replica. *)
type feed = {
  feed_label : string;  (** for logs and error messages *)
  fetch_snapshot : unit -> (string, Error.t) result;
      (** the leader's current store document, for bootstrap/resync *)
  fetch_journal : off:int -> (string, Error.t) result;
      (** leader journal bytes from [off] to its end; [""] when the
          journal does not exist yet or [off] is at its end *)
  fetch_head : unit -> (string, Error.t) result;
      (** at most the first kilobyte — enough to decode the header
          frame; the cheap rotation/epoch probe on idle polls *)
}

val file_feed : ?io:Fsio.t -> string -> feed
(** Feed a leader store file (and [store ^ ".journal"]) via direct
    reads — same-host or shared-filesystem replication, and the feed
    the crash sweep drives byte by byte. *)

(** {2 The feed wire format}

    Every frame of the follower feed is encoded and decoded here, once:
    the requests a follower sends, the status frame the listener
    ({!Server.serve}, through {!Shipper.accept}) answers with, and the
    push stream's acks. Both clients ({!Shipper.feed} and {!subscribe})
    go through these codecs too. *)

(** One request frame. *)
type request =
  | Snapshot  (** the store document + its recorded version *)
  | Journal_from of int  (** journal bytes from byte offset [off] *)
  | Head  (** the journal's first kilobyte, holding its header *)
  | Subscribe of int
      (** convert the connection to a push stream from byte [off] *)

val request_payload : request -> string
val request_of_payload : string -> (request, string) result

(** The status frame a listener answers a request with. *)
type reply =
  | Ready  (** [(ok)]: the raw payload frame follows *)
  | Pushing of int * int
      (** [(pushing BASE EPOCH)]: the subscription is live; raw journal
          bytes follow as they land *)
  | Refused of string
      (** [(error MSG)]: the in-band refusal of any request *)

val reply_payload : reply -> string
val reply_of_payload : string -> reply option

val ack_payload : int -> string
(** [(ack V)]: the version a push follower holds durably, sent
    upstream — a position a leader's journal rotation does not move. *)

val ack_of_payload : string -> int option

val header_of_bytes : string -> (int * int) option
(** [(base, epoch)] from the header frame at the start of journal bytes
    ({!feed.fetch_head}, or a fetch from offset 0); [None] when the
    bytes hold no valid header. *)

type status = Replica_core.status =
  | Following  (** tailing normally (also while awaiting a journal) *)
  | Degraded of string
      (** a corrupt shipped record is quarantined; serving continues at
          the last good position, polling continues (re-fetching) *)
  | Promoted  (** writable; {!poll} refuses *)

val status_label : status -> string

type t

val create :
  ?io:Fsio.t ->
  ?refetch_limit:int ->
  feed:feed ->
  target:string ->
  unit ->
  (t, Error.t) result
(** Start (or resume) a follower whose own store lives at [target]. If
    [target] exists it is opened like any crashed store (repairing its
    torn tail) and tailing resumes; otherwise the leader's snapshot is
    fetched and the replica bootstraps from it. Either way the replica
    then locates itself in the leader's journal — one full read that
    positions the tail so every later {!poll} reads only new bytes —
    and attaches a view-object cache ({!Workspace.attach_cache}).
    [refetch_limit] (default 3) is how many times a suspect frame is
    re-fetched before quarantine. A feed whose header epoch is {e below}
    the target store's own is a deposed leader; following it would fork
    the replicated history, so [create] refuses with {!Error.Invalid}.
    A feed at a {e higher} epoch is a newly promoted leader: the target
    restarts from its snapshot (a resync), because the target's own
    history past the new leader's start — a deposed leader's
    unreplicated tail, say — may not be the new leader's. *)

type progress = Replica_core.progress = {
  records : int;  (** leader journal records ingested this poll *)
  applied : int;  (** commit-log entries applied to the workspace *)
  rotated : bool;  (** followed a leader rotation barrier in place *)
  resynced : bool;  (** fell back to a full snapshot resync *)
  lag_records : int;  (** complete leader records seen but not applied *)
}

val poll : t -> (progress, Error.t) result
(** One tail round: fetch new leader bytes, verify/validate/ingest each
    complete frame, fsync the replica journal once, and sync the cache
    forward. On an idle round the header is probed instead: a changed
    base is a rotation (followed in place when the replica's version
    covers the new base — its own journal, and its in-memory commit log
    with it, is folded into its snapshot and tailing re-anchors with no
    gap and no replay — or by a full {e resync} otherwise). A higher
    epoch always resyncs from the new leader's snapshot, and a lower one
    is refused as a deposed leader ({!Error.Invalid}).
    Torn trailing bytes are left unconsumed; suspect frames follow the
    refetch/quarantine discipline. A failed write or fsync on the
    replica's own journal is returned (the journal is cut back to its
    clean length before the next append), never counted as a refetch. *)

val poll_until_idle : ?max_rounds:int -> t -> (progress, Error.t) result
(** {!poll} until a round makes no progress (bounded by [max_rounds],
    default 1000), summing the progress — "catch all the way up". *)

val workspace : t -> Workspace.t
(** The replica's current read-only state. Committing to it locally
    would fork the replica from the leader; don't — promote first. *)

val cache : t -> Viewobject.Cache.t

val position : t -> int
(** The replication position: the replica's committed version. Reads
    via {!instances}/{!oql} are consistent as of exactly this version. *)

val epoch : t -> int
val status : t -> status

val leader_offset : t -> int
(** Leader journal bytes consumed — the resumable tailing cursor. *)

val instances :
  t -> string -> (Viewobject.Instance.t list, string) result
(** Follower read through the warm cache: all instances of the named
    view-object definition at {!position}. *)

val oql :
  t -> string -> string -> (Viewobject.Instance.t list, string) result
(** Follower OQL read through the warm cache at {!position}. *)

(** {2 Push-mode streaming}

    The pull feed's latency floor is its poll interval. A push
    subscription removes it: the follower holds a long-lived connection
    on which the leader streams raw journal frames as they land, and
    acks the version it holds durably back ([(ack <version>)]) after
    each fsync. A leader rotation does not end the stream: the leader
    streams its new journal from the first byte, and a follower whose
    version covers the new base takes the header frame as a barrier —
    it folds its own journal in place and re-anchors at the header's
    end, passing over any records after the header it already holds,
    with no resync and no pull round trip. The stream is an
    optimization, never a second source of truth — any other anomaly (a
    rotation the follower fell behind, an epoch change, sever, corrupt
    or invalid frame) closes it, the stateless pull path re-finds
    footing, and the follower resubscribes from its own position.
    Streamed frames go through the same ingest path, durability point
    and ack as pulled ones ({!Replica_core}). *)

type push
(** A live push subscription (socket + frame reassembly buffer). *)

val subscribe : ?net:Netio.net -> t -> sock:string -> (push, Error.t) result
(** Open a stream against the push server on [sock], subscribing at
    this replica's {!leader_offset}. Reads the [(pushing <base>
    <epoch>)] handshake and refuses (transient {!Error.Io}) when it
    does not match the replica's own header — catch up through the
    pull path first. On a match it acks its durable version (first
    fsyncing what an errored poll left unsynced), the position the
    leader counts it at. [net] is the
    send/recv seam fault injection wraps. *)

val push_poll : ?timeout:float -> t -> push -> (progress, Error.t) result
(** One stream round: wait up to [timeout] seconds (default 0.05) for
    pushed bytes, take each complete frame through the same code
    {!poll} uses (records are verified, validated and ingested; a
    rotation's header frame is followed in place), fsync once, sync the
    cache, and ack the new durable version upstream. Errors close the
    subscription; stream and feed errors are typed transient — the
    caller falls back to {!poll} and resubscribes. *)

val push_close : push -> unit
val push_alive : push -> bool

val follow_push :
  ?net:Netio.net ->
  ?policy:Resilience.Policy.t ->
  ?clock:Resilience.Clock.t ->
  ?poll_timeout:float ->
  ?should_stop:(t -> bool) ->
  t ->
  sock:string ->
  (int, Error.t) result
(** The resilient follower driver: subscribe, {!push_poll} until the
    stream drops, catch up through the pull feed ({!poll_until_idle}),
    sleep a seeded backoff ({!Resilience.Policy.backoff_ns}), and
    resubscribe — until [should_stop] answers true (checked between
    rounds) or the replica is promoted. Returns total records
    ingested. Every feed error is retried, a refused connection while
    the leader restarts included; a non-transient fault on the replica's
    own files, and a deposed leader's {!Error.Invalid} refusal, are
    returned: retrying cannot mend them. *)

(** {2 Durable position and promotion} *)

type durable = {
  d_version : int;  (** newest committed version durably held *)
  d_epoch : int;  (** journal header epoch (0 for a bare snapshot) *)
  d_offset : int;  (** clean journal byte length *)
}
(** A store's on-disk replication position, read without a running
    replica — what failover compares across candidates. *)

val durable_position : ?io:Fsio.t -> string -> (durable, Error.t) result
(** Replay the store's journal (read-only — a torn tail is discarded in
    memory, not repaired) and report its durable position; a journal-less
    store reports its snapshot version at epoch 0, offset 0. *)

val more_advanced : durable -> durable -> bool
(** [(epoch, version, offset)] lexicographic — a higher epoch wins
    outright, because epochs only move forward. *)

val promote : t -> (Workspace.t * int, Error.t) result
(** Promote this follower from its last durable record: under the
    store lock, repair-open its own files (truncating any torn tail)
    and rotate into a fresh snapshot stamped with the {e next} epoch.
    Returns the writable workspace and the new epoch; the replica's
    status becomes [Promoted] and further {!poll}s refuse. Any deposed
    leader persisting with [expect_epoch] from before the promotion is
    fenced with {!Error.Invalid}. *)

val promote_store :
  ?io:Fsio.t ->
  ?peers:string list ->
  string ->
  (Workspace.t * int, Error.t) result
(** {!promote} for a store path without a running replica — what the
    [penguin replica promote] CLI calls on the follower's files. When
    [peers] names other candidates' store paths, their
    {!durable_position}s are compared first and the promotion refuses
    with {!Error.Invalid} if any peer is strictly {!more_advanced} —
    promoting a lagging follower would silently drop every quorum-acked
    commit past its position. *)
