(** Shared Unix-domain socket plumbing for the network-facing layers
    ({!Shipper}, {!Server}, {!Replica}, {!Client}): binding and
    connecting, whole-connection and streaming frame I/O, and the typed
    {!Error.Io} classification of socket faults — in one place, so the
    listener and every client fail the same way.

    Frames are the journal wire format ({!Journal.frame}: 4-byte BE
    length, 4-byte BE CRC-32, payload), which is what makes a truncated
    or mangled transport chunk indistinguishable from a torn journal
    tail: the checksum catches it, and the failure surfaces as a typed
    transient I/O error rather than partial data. *)

val max_frame_bytes : int
(** Upper bound on a single frame's payload (64 MiB). A length prefix
    past it is treated as corruption, not as an allocation request —
    the bound is what keeps a malformed frame from looking like a
    plausible multi-gigabyte read. *)

val io_error : op:Error.io_op -> path:string -> string -> Unix.error -> Error.t
(** Classify a [Unix.Unix_error] from a socket syscall into a typed
    {!Error.Io} via {!Error.of_unix} — the single classification point
    both the shipper and the server use. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, looping over short writes and retrying
    [EINTR]. @raise Unix.Unix_error on socket failure. *)

val read_some : Unix.file_descr -> bytes -> int
(** One read into the buffer, retrying [EINTR]; [0] is EOF.
    @raise Unix.Unix_error on socket failure. *)

val read_all : Unix.file_descr -> string
(** Read to EOF (the connection-per-request pattern: the peer shuts
    down its write side to mark the end of its request).
    @raise Unix.Unix_error on socket failure. *)

(** The send/recv vtable the streaming paths (server connections,
    push-mode shipping) route their socket I/O through — the network
    counterpart of the {!Fsio.t} seam, and the point where a test
    injects link faults. Both calls raise [Unix.Unix_error] like the
    syscalls they wrap. *)
type net = {
  net_send : Unix.file_descr -> string -> unit;
  net_recv : Unix.file_descr -> bytes -> int;
}

val default_net : net
(** {!write_all} / {!read_some}. *)

val listen : sock:string -> (Unix.file_descr, Error.t) result
(** Bind and listen on a Unix-domain socket path, unlinking any stale
    socket file first. *)

val connect : sock:string -> (Unix.file_descr, Error.t) result
(** Connect to a Unix-domain socket path. *)

(** Incremental frame decoding over a byte stream — what a long-lived
    connection needs where {!Journal.decode_frames} over a complete
    buffer does not suffice: the stream must distinguish "frame not
    complete yet, keep buffering" from "complete but checksum-invalid,
    the connection is poisoned". *)
module Stream : sig
  type t

  val create : unit -> t

  val feed : t -> bytes -> int -> unit
  (** Append the first [len] bytes of the buffer to the stream. *)

  val pending : t -> bool
  (** Buffered bytes remain that {!next} has not consumed (complete or
      not) — whether a drained event loop should call {!next} again. *)

  val ready : t -> bool
  (** {!next} would answer [`Frame] or [`Corrupt] without more bytes —
      whether a reader may drain the stream before waiting on its
      socket. *)

  val next : t -> [ `Frame of string | `Awaiting | `Corrupt of string ]
  (** Decode the next frame off the stream. [`Awaiting]: the bytes so
      far are a valid prefix of a frame — wait for more. [`Corrupt]: a
      complete frame failed its CRC, or the length prefix exceeds
      {!max_frame_bytes} or is negative — the stream cannot be resynced
      and the connection should be answered in-band and closed. *)
end

val oneshot_exchange :
  sock:string -> string -> ((int * string) list, Error.t) result
(** The connection-per-request client: connect, send the payload as
    one frame, shut down the write side, read the response to EOF, and
    return its clean frames ({!Journal.decode_frames} offsets and
    payloads).
    Failures — including a response with torn trailing bytes — are
    typed transient I/O errors, which is what lets a caller's
    poll/retry discipline absorb a server dying at any byte. *)
