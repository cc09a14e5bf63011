(** The decision core of {!Server.serve}: sessions, the flush window
    and its triggers, the quorum tracker and the lag policy, as one step
    function from events to actions. How a window commits is not the
    core's business: a flush hands its parked sessions to
    {!Session.commit_window}, the procedure [penguin session commit]
    also uses, and answers each with its verdict.

    The core performs no I/O. It never touches a socket, a file or the
    clock: a {!Tick} is the only way time enters a decision, and the
    event loop ({!Server.serve}) carries out every {!action} (sends,
    closes, the journal append, the follower feed) and reports what
    came of them as further events. That is what lets a seeded
    simulator drive the real engine through random orderings — fake
    clock, fake appender, fake followers — and check the serving
    invariants on each. The circuit breaker is the event loop's too: it
    guards the append, so in degraded mode a commit is refused by its
    window's {!Appended} error, not at [(commit)].

    Admission is decided from the core's own state. A [(commit)] past
    [max_parked] parked connections, and a [(queue)] past 128 statements
    queued in the connection's session, are refused at once with
    {!Error.Busy} (counted in [resilience.shed]). The session bound
    counts statements, what the client sent, not the updates a
    statement expands to.

    Nor does the core know the journal's bytes: a replication position
    is a commit version, which a journal rotation does not change, so
    rotating — and relaying each window's record to the push followers
    first — is the event loop's business.

    {!step} mutates the state record (and the {!Viewobject.Cache} it
    owns) and returns it with the step's actions, in the order they must
    be carried out. *)

(** Policy for a window whose replication deadline passes with fewer
    than [sync_replicas] follower acks. *)
type on_lag = Degrade | Fail

type config = {
  flush_window : int;
      (** parked commits that force a flush (default 64); [1] degrades
          to per-request fsync — E17's baseline, [penguin serve
          --window 1] *)
  flush_interval_ns : float;
      (** age of the oldest parked commit that forces a flush (default
          10 ms) — the latency bound when input trickles *)
  max_parked : int;
      (** admission bound on connections parked on a commit (default
          256) *)
  sync_replicas : int;
      (** followers that must ack a window before its client acks are
          released (default 0: fsync-only acks, no replication wait) *)
  repl_deadline_ns : float;
      (** per-window bound on the quorum wait (default 50 ms) *)
  on_lag : on_lag;  (** deadline policy (default [Degrade]) *)
}

val default_config : config

type stats = {
  requests : int;  (** frames answered, including errors *)
  commits : int;  (** commit requests acked durable *)
  windows : int;  (** flushes that persisted at least one commit *)
}

type conn_id = int
(** The event loop's name for a connection; never reused. *)

type event =
  | Opened of conn_id  (** a client connected *)
  | Closed of conn_id
      (** the peer went away: EOF, a failed read or a failed send *)
  | Frame of conn_id * string
      (** one request frame's payload — delivered only while {!wants} *)
  | Corrupt of conn_id * string
      (** the connection's byte stream failed its framing *)
  | Tick of float
      (** the clock reads this many ns: fires the age trigger and the
          replication deadlines *)
  | Idle  (** the event loop's wait found no input: the quiesce trigger *)
  | Appended of (unit, Error.t) result
      (** the result of the last {!Append}. On [Ok] the core trims its
          commit log to the retention floor ({!Commit_log.trim}): the
          entries no open or parked session, cache sync or later append
          can ask for are dropped *)
  | Subscribed of conn_id * int
      (** the feed request handed over by {!Feed} made the connection a
          push follower, known to hold this version durably — [0] from
          the socket driver, which learns the follower's version from
          its first {!Follower_ack}, sent right after the handshake *)
  | Follower_ack of conn_id * int
      (** a follower acked this durable version, past its last *)

type action =
  | Send of conn_id * string list  (** write these payloads as frames *)
  | Close of conn_id  (** close the socket; the core has forgotten it *)
  | Append of int * Workspace.t
      (** append the workspace's commits after this version to the
          journal (one fsync), rotate the journal if that made a
          rotation due, and answer with {!Appended} *)
  | Feed of conn_id * string
      (** answer this follower-feed request ({!Shipper.accept}); report
          a subscription with {!Subscribed} *)

type state

val src : Logs.src

val create : ?config:config -> Workspace.t -> state
(** A core serving the committed workspace. With [sync_replicas = K],
    each flushed window's client acks wait until K healthy followers ack
    its last version. *)

val step : state -> event -> state * action list

val wants : state -> conn_id -> bool
(** Whether the core takes the connection's next frame now: it is open,
    not parked on a commit, and the server is not shutting down. *)

val wake : state -> held:conn_id list -> float option
(** When the event loop must step the core again without new input, given
    the connections that hold a complete buffered frame: [Some t] (a
    clock reading in ns — the current tick while there is work to do,
    else the oldest quorum wait's deadline) or [None], wait for input.
    Never [None] while a [held] connection is open and not parked: a
    flush may just have unparked a connection whose client pipelined
    frames behind its commit. *)

val stopped : state -> bool
(** A [(shutdown)] was answered: every connection is closed. *)

val parked : state -> int
(** Connections parked on a commit: what [max_parked] bounds. *)

val stats : state -> stats
