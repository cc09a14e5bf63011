(** The durable commit journal: an append-only on-disk write-ahead log
    of {!Commit_log} entries.

    The paper's pipeline ends when translated operations are "applied to
    the database"; this module is what makes that application survive
    process death. A workspace on disk is a {e snapshot} (a {!Store}
    document recording its commit-log version) plus a journal of every
    commit since: each {!append} writes one length-prefixed,
    CRC-32-checksummed record holding the commit's entries (their
    versions, request kinds, and full {!Relational.Delta.t} images), and
    {!Recovery.open_store} reconstructs workspace = snapshot ⊕ replayed
    deltas. Because the deltas themselves survive, cross-process
    sessions validate optimistic concurrency against real footprints
    instead of assuming conflict on any version change.

    Record framing: [4-byte big-endian payload length | 4-byte
    big-endian CRC-32 | payload]. The first record is a header naming
    the {e base} version the journal extends; every further record is
    one commit batch (all-or-nothing: a crash mid-append tears the
    record, the checksum catches it, and the whole batch is discarded).
    All I/O goes through an injectable {!Fsio.t} (re-exported as
    {!Io}), the fault-injection seam the crash-recovery tests drive. *)

module Io = Fsio

type t
(** A handle: a journal file path and the I/O layer to reach it. *)

val create : ?io:Fsio.t -> string -> t
(** [create path] — no I/O happens until an operation runs. *)

val path : t -> string

val journal_path : string -> string
(** Conventional journal location for a store file: [store ^ ".journal"]. *)

val initialize : ?epoch:int -> t -> base:int -> (unit, Error.t) result
(** Atomically replace the journal with a fresh one extending version
    [base] (header record only), stamped with leader [epoch] (default
    [0]). The epoch is the replication fencing token: promotion writes
    a higher one, and a fenced old leader's {!Recovery.persist} refuses
    to append under an epoch that is no longer the journal's. *)

val append : t -> ?sync:bool -> Commit_log.entry list -> (int, Error.t) result
(** Append one commit batch as a single record; [sync] (default [true])
    fsyncs afterwards — the commit's durability point. Returns the
    framed bytes written. Appending the empty batch is a no-op that
    writes [0] bytes. *)

val append_frame : t -> ?sync:bool -> string -> (int, Error.t) result
(** {!append} for a record its caller has already framed ({!frame} of
    {!record_payload}) — what lets a writer that keeps the payload (to
    know its own record after a failed append) encode it only once. *)

type record = Commit_log.entry list
(** One framed journal record: one commit batch, written by {!append}
    and applied all-or-nothing by {!Recovery.open_store} and
    {!Replica}. *)

type replay = {
  base : int;  (** snapshot version the journal extends *)
  epoch : int;  (** leader epoch from the header ([0] for format-1 files) *)
  entries : Commit_log.entry list;
      (** oldest first, flattened from every record *)
  framed : (int * record) list;
      (** every record in file order, tagged with the byte offset its
          frame starts at — what lets a tailer resume at [clean_bytes]
          (or any record boundary) without re-reading from the header *)
  records : int;  (** records read (excluding the header) *)
  clean_bytes : int;  (** length of the valid prefix *)
  torn_bytes : int;  (** bytes discarded after it ([0] = clean) *)
}

val replay : t -> (replay option, Error.t) result
(** Read the journal back. [Ok None] when the file does not exist. A
    torn tail — a record cut short or failing its checksum — is
    truncated at the first bad record and reported via [torn_bytes];
    entries before it are returned. An unreadable header, or a
    checksummed record that does not parse as a commit batch, is
    corruption beyond a torn tail and errors with {!Error.Corrupt}
    naming the journal path and, for a record-level failure, the
    0-based record index and its byte offset. *)

val tail :
  t -> off:int -> (((int * string) list * int * int) option, Error.t) result
(** Incremental read for followers: the complete, checksum-valid frames
    whose first byte is at or after byte [off], as
    [(absolute_offset, payload) list, clean_end, torn_bytes]. Reads only
    [off..EOF] (one positioned read), so a poll loop pays for new bytes,
    not the whole file. [off] must sit on a record boundary — normally
    the [clean_end] of the previous call, or a {!replay}'s
    [clean_bytes]. [Ok None] when the journal does not exist; an empty
    frame list with [torn_bytes = 0] means no news. Payloads decode
    with {!record_of_payload} (or {!header_of_payload} at offset 0). *)

val read_header : t -> ((int * int) option, Error.t) result
(** [(base, epoch)] from the header record alone, reading at most the
    first kilobyte — the cheap probe a follower uses to detect rotation
    (base changed) or fencing (epoch changed) without re-reading the
    file. [Ok None] when the journal does not exist. *)

val truncate_torn : t -> clean_bytes:int -> (unit, Error.t) result
(** Atomically rewrite the journal to its first [clean_bytes] bytes (a
    {!replay}'s clean prefix, or the end of the last record a writer
    keeps), so later appends extend a clean file. [Ok] means the cut is
    durable, directory entry included. *)

val sync_name : t -> (unit, Error.t) result
(** fsync the journal's directory, making its current name durable. *)

val rotate :
  ?epoch:int -> t -> snapshot_path:string -> snapshot:string -> base:int ->
  (unit, Error.t) result
(** Fold the journal into a snapshot at version [base], the journal's
    tail, and compact it: atomically write [snapshot] (tmp file + fsync
    + rename), then atomically replace the journal with a header at
    [base] stamped with [epoch] (default [0] — callers that preserve or
    bump the epoch pass it explicitly). Every crash point reopens at
    [base]: between the two writes the new snapshot sits under the old
    journal, and replay skips the entries the snapshot already
    contains; after the rename the journal holds no record. Counts
    [journal.rotations]. *)

(** {1 Wire building blocks}

    The framing and payload codecs, exposed for the replication layer:
    {!Shipper} serves raw journal bytes, and {!Replica} re-frames
    verified payloads into its own journal byte-identically. *)

val frame : string -> string
(** [4-byte BE length | 4-byte BE CRC-32 | payload]. *)

val decode_frames : ?off0:int -> string -> (int * string) list * int * int
(** Split a byte string into its complete, checksum-valid frames:
    [(offset, payload) list, clean_end, torn_bytes]. Offsets are
    relative to the string start plus [off0] (default [0]) — pass the
    absolute position the chunk was read from to get absolute offsets.
    [torn_bytes] counts the trailing bytes that do not form a valid
    frame (an in-flight append, a tear, or corruption — the caller
    decides by whether they stay torn across polls). *)

val record_payload : record -> string
val record_of_payload : string -> (record, string) result

val header_payload : base:int -> epoch:int -> string
val header_of_payload : string -> (int * int, string) result
(** [(base, epoch)]; accepts format 1 (no epoch field) as epoch [0]. *)

val header_length : base:int -> epoch:int -> int
(** The length of the header frame {!initialize} and {!rotate} write. *)
