(** Crash recovery: reconstruct a workspace from its on-disk snapshot
    plus the {!Journal} of commits since, and persist new commits
    durably.

    The invariant the fault-injection tests enforce: however a process
    dies — mid-append, mid-fsync, mid-rename, mid-rotate —
    {!open_store} yields a workspace equal to either the pre-crash or
    the post-crash committed state, never a torn mixture, and every
    replayed delta is cross-checked against the structural model with
    {!Structural.Integrity.check_delta}. The commit's durability point
    is the journal append's fsync ({!persist}): before it the commit
    never happened; after it recovery always replays it. *)

type report = {
  snapshot_version : int;  (** version recorded in the store document *)
  replayed : int;  (** journal entries applied on top of it *)
  version : int;  (** resulting workspace version *)
  epoch : int;
      (** the store's leader epoch: the newer of the one its snapshot
          records and its journal header's ([0] when neither has one) —
          pass it back to {!persist} as [expect_epoch] to be fenced off
          if a replica promotes *)
  torn_bytes : int;  (** torn journal tail discarded ([0] = clean) *)
  repaired : bool;  (** the torn tail was truncated on disk *)
  journal : bool;  (** a journal file was present *)
  snapshot_bytes : int;
      (** the store document's length — pass it to {!persist} or
          {!Appender.create} as [snapshot_bytes] *)
}

val pp_report : Format.formatter -> report -> unit

val apply_entry :
  ?path:string ->
  ?record:int ->
  Workspace.t ->
  Commit_log.entry ->
  (Workspace.t, Error.t) result
(** Apply one replayed commit-log entry: append it to the workspace's
    log (versions must stay dense), apply its delta, and cross-check
    the result against the structural model with
    {!Structural.Integrity.check_delta}. This is the single replay step
    both {!open_store} and a tailing {!Replica} go through — a shipped
    delta gets exactly the validation a locally recovered one does. On
    failure the {!Error.Corrupt} names the entry's version and, when
    [path]/[record] say where it came from, the journal record. *)

val open_store :
  ?io:Fsio.t ->
  ?repair:bool ->
  ?cache:Viewobject.Cache.t ->
  string ->
  (Workspace.t * report, Error.t) result
(** Load the store document at the path, then replay its journal
    ([path ^ ".journal"], if present): entries newer than the snapshot's
    recorded version are applied in order — versions must extend the
    snapshot densely — with each delta validated against the structural
    model as it lands. The returned workspace's commit log holds the
    replayed entries as real deltas (its history below the snapshot
    version is a barrier), so sessions check optimistic-concurrency
    conflicts against true footprints. A torn journal tail is discarded
    in memory; when [repair] (default [false]) it is also truncated on
    disk, and a journal without one has its directory fsynced, so a
    writer never appends to a journal whose name a crash could take
    back. Leave [repair] off on read-only paths — a "torn tail" seen
    without the store lock ({!Fsio.with_lock}) may be another process's
    append in flight, and rewriting the journal would discard its
    commit. {!persist} and {!Appender.create} repair when they open
    instead, by the same rule.

    [cache] (an attached {!Viewobject.Cache.t}) is
    {!Workspace.sync_cache}d to the recovered workspace: since replayed
    journal entries land in the log as real deltas, a cache warmed
    before a crash is replay-warmed — patched forward entry by entry —
    instead of rebuilt (unless its position predates the snapshot, in
    which case it is invalidated and rebuilds lazily). *)

type persisted = {
  rotated : bool;  (** the journal was folded into a fresh snapshot *)
  rotate_error : Error.t option;
      (** the rotation was due but failed — the commit itself is
          durable and the journal intact; a later commit retries *)
}

val persist :
  ?io:Fsio.t ->
  ?snapshot_bytes:int ->
  ?expect_epoch:int ->
  store:string ->
  since:int ->
  Workspace.t ->
  (persisted, Error.t) result
(** Durably record the workspace's commits after version [since] (which
    must be the version {!open_store} returned for this store) — a
    one-shot {!Appender}: open one at [since], append once, drop it.
    The commits land in the journal as one all-or-nothing record whose
    fsync is the durability point, initializing the journal at [since]
    if the store was a plain export without one. Refuses with a
    "store advanced" {!Error.Conflict} if the journal's tail version no
    longer equals [since] (a concurrent commit slipped in); call under
    {!Fsio.with_lock} on the store, as the CLI does, to rule that out
    rather than detect it. A failed append cuts its own record back off
    before the error is returned, so no reopen finds a commit reported
    failed: a failed fsync may have dropped its pages, and a later
    fsync does not write them back. Should that cut fail too, the one
    exception to the refusal is this write's own record: when the
    journal ends with exactly the record the append would write, one
    past [since], a retried persist cuts it off and appends it afresh,
    so retrying a persist is safe. A torn journal tail is truncated
    before the append, and a journal kept as found has its directory
    fsynced first, so its name is durable. Once the journal's records
    (its bytes past the header) are at least as many bytes as the store
    document under them, it is folded into a fresh snapshot
    ({!snapshot}): a rotation rewrites the snapshot only after as many
    bytes of journal have been written, and replay reads at most about
    a snapshot's worth of journal, however long the store has lived.
    [snapshot_bytes] is that document's length, the
    [report.snapshot_bytes] of the open [since] came from; without it
    the store is read once to learn it. A rotation failure {e after}
    the append's fsync is reported as [rotate_error], not [Error] — the
    commit is already durable and must not be retried. Failures are typed: a lost race is
    {!Error.Conflict} (retryable after reopening), a stale [since] is
    {!Error.Invalid}, disk faults are {!Error.Io}. A caller that wants
    degraded read-only mode wraps the persist in
    {!Resilience.Breaker.protect}, as [penguin serve] wraps each
    window's write; {!open_store} is never gated.

    [expect_epoch] (from the {!report} of the open this commit was
    prepared against) arms epoch fencing: if the journal header's epoch
    has advanced past it — a replica promoted and took over leadership —
    the persist refuses with {!Error.Invalid} ("fenced") {e before}
    appending anything. Without it (the default), no epoch check is
    made. Rotation and journal initialization preserve the epoch. *)

val snapshot :
  ?io:Fsio.t -> ?epoch:int -> store:string -> Workspace.t ->
  (unit, Error.t) result
(** Atomically rewrite the store document at the workspace's current
    state and reset the journal to extend it ({!Journal.rotate}),
    recording [epoch] (default [0]) in both. *)

val install :
  ?io:Fsio.t -> epoch:int -> base:int -> store:string -> string ->
  (unit, Error.t) result
(** Restart the store from another store's document: write it over the
    store document, then a fresh journal based at [base] stamped with
    [epoch] — how a follower resyncs from its leader's snapshot. When
    the old journal holds entries past [base], it is first cut back to
    its own base (keeping its epoch), so no crash point reopens those
    entries on top of the new document: every crash point reopens
    either the old store's state or the new one's. A leader's document
    records its epoch ({!snapshot}, {!Appender}) and a store opens in
    the newer of its snapshot's and its journal's epochs, so the new
    state reopens in [epoch] even before the new journal is written. *)

(** The exclusive-writer journal handle, and the one durable-append
    implementation. {!Appender.create} validates the journal with one
    full replay, after which each {!Appender.append} is one journal
    append + one fsync from a trusted in-memory cursor — a server
    flushing hundreds of windows keeps one for its lifetime, and
    {!persist} is the one-shot case.

    Soundness precondition: the caller holds the store's exclusive lock
    ({!Fsio.with_lock}) for the appender's {e entire} lifetime — that is
    what rules out concurrent writers. A failed append cuts its record
    back off before it reports. When that cut or a rotation fails, the
    cursor is marked dirty and the next append rebuilds it from disk
    before writing, cutting off what lies past the cursor's tail: a
    torn tail, or the whole record of the append whose cut failed,
    whose commit was reported failed. A fault costs one extra replay,
    not correctness. *)
module Appender : sig
  type t

  val create :
    ?io:Fsio.t ->
    ?snapshot_bytes:int ->
    ?expect_epoch:int ->
    store:string ->
    Workspace.t ->
    (t, Error.t) result
  (** Validate the journal once — epoch fence against [expect_epoch]
      (refusing with {!Error.Invalid} "fenced" if a replica promoted),
      truncate any torn tail, initialize a journal for a plain exported
      store — and capture the journal's length, its header's and the
      tail version. [snapshot_bytes] is the length of the store
      document the workspace was opened from ({!report}'s
      [snapshot_bytes]); without it the store is read once to learn it.
      Refuses with a "store advanced" {!Error.Conflict} if the journal's
      tail does not match the workspace's version (the workspace must
      come from {!open_store} on the same store, under the same lock).
      The appender keeps the journal's length, by the
      bytes of each record it appends and the new header's length at
      each rotation, and the snapshot's, by each rotation's document's;
      it sets the [recovery.journal_bytes] and
      [recovery.snapshot_bytes] gauges to them as they change. *)

  val append : t -> since:int -> Workspace.t -> (persisted, Error.t) result
  (** {!write}, then {!rotate}: the whole durable step in one call, as
      {!persist} takes it, with {!persist}'s rotation rule and
      [rotate_error] contract. *)

  val write : t -> since:int -> Workspace.t -> (unit, Error.t) result
  (** Durably record the workspace's commits after version [since] with
      one journal append + one fsync — no replay, and no rotation.
      [since] must equal the appender's cursor (the version of the last
      write, or of {!create}); otherwise {!Error.Conflict}. *)

  val rotate : t -> Workspace.t -> persisted
  (** Fold the journal into a fresh snapshot of the workspace if a
      rotation is due; otherwise do nothing. A rotation is due once the
      journal's records — its bytes past the header, at least one
      record — are at least as many bytes as the snapshot under them:
      its length at {!create}, then each rotation's document's. The
      workspace must be the one last written, at version V (any other
      is left unrotated). The rotation renders it ({!Store.save}) and
      installs it through {!Journal.rotate}: the snapshot at V, then the
      journal replaced by a header at V with the same epoch. It is
      timed whole in [recovery.snapshot_install_ns]. A failure is
      reported as [rotate_error], as {!persist} reports it. *)

  val tail : t -> int
  (** The newest version the journal durably holds. *)
end
