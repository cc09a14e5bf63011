(** The follower feed's socket side: how [penguin serve] answers a
    follower's requests for the leader store's snapshot and journal
    bytes over a Unix-domain socket, and the client {!feed} a follower
    fetches them with — one length-prefixed, CRC-32-checksummed frame
    exchange per request.

    The base protocol is deliberately stateless — each request opens a
    connection, sends one request frame ([(snapshot)], [(head)], or
    [(journal <off>)]), and reads a two-frame response (a status sexp,
    then the raw bytes) — so the follower's position lives entirely in
    the {!Replica} and a dropped connection at {e any} byte is just a
    failed fetch: the frames reuse the journal wire format, a truncated
    response fails its checksum, the client reports a transient I/O
    error, and the replica re-fetches. The [@replica-suite] kill sweep
    exercises exactly this, cutting the exchange at every I/O point.

    {2 Push mode}

    On top of the pull feed sits one stateful request: [(subscribe
    <off>)] converts the connection into a long-lived stream. The
    server replies with a single [(pushing <base> <epoch>)] frame, then
    pushes raw journal bytes (complete frames only — the clean prefix)
    as they land; the follower answers with [(ack <version>)] frames
    naming the version it holds durably, the first right after it
    accepts the handshake. The stream carries no
    per-frame offsets: bytes are contiguous from the subscribed
    position. A rotation keeps the stream open — the new journal is
    streamed from its first byte, and its header frame is the barrier
    the follower folds its own journal at, passing over any records
    after it that it already holds. An epoch change or an
    unwritable socket closes the stream; the follower then catches up
    through the stateless pull path and resubscribes, so push mode is
    an optimization of the feed's latency, never a second source of
    truth. [(subscribe)] at a non-boundary offset is refused in-band
    with one [(error ...)] frame and the connection closed. *)

(** {2 The listener side}

    The server half of the feed protocol ({!Replica.request},
    {!Replica.reply}). {!Server.serve} is the one listener: it owns the
    sockets and the event loop, writes the journal it ships, and calls
    in here for every feed decision. A store that [penguin session
    commit] wrote is shipped by starting [penguin serve] on it. *)

type sub
(** A live push subscriber: its socket, the journal header it is
    streamed under, the bytes of that journal relayed so far, and the
    version it last acked durable. *)

val acked : sub -> int
(** The version the subscriber holds durably — what quorum replication
    counts. A new subscriber holds 0: the follower acks its version
    right after it accepts the handshake, and each [(ack V)] moves it
    on. *)

val accept :
  net:Netio.net ->
  Replica.feed ->
  Unix.file_descr ->
  string ->
  [ `Answered | `Subscribed of sub | `Close ]
(** Answer one request frame read from the connection, against [feed]
    (the leader's own files). A stateless request gets a status frame
    plus the raw bytes ([`Answered]); an undecodable one gets
    [(error MSG)] plus an empty frame. [(subscribe OFF)] at a frame
    boundary of the journal answers [(pushing BASE EPOCH)] and returns
    the new subscriber; anywhere else it is refused in-band with one
    [(error MSG)] frame, and [`Close] tells the caller to close the
    connection — as does a failed send. *)

val relay : net:Netio.net -> Replica.feed -> sub -> bool
(** Send the subscriber every complete journal frame past what it has
    been sent — the clean prefix only, never a torn tail that may
    still be an append in flight. The journal header decides first: a
    new base under the same epoch is a rotation, and the new journal is
    sent from byte 0, its header frame first. [false]: the epoch
    changed, or the read or the send failed, and the caller should
    close the stream. A writer calls this after every append and after
    every rotation's install. *)

val take_ack : sub -> string -> [ `Advanced | `Stale | `Garbage ]
(** Take in one frame a subscriber sent: an [(ack V)] at or past its
    last ack advances it, an older one is [`Stale] (positions only move
    forward), and anything else is [`Garbage] — close the stream. *)

(** {2 The client side} *)

val feed : sock:string -> Replica.feed
(** A {!Replica.feed} speaking the protocol against [sock]. Fetches
    are connection-per-request; failures are typed transient I/O
    errors the replica's poll/refetch discipline absorbs. *)
