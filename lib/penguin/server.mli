(** The network serving front end: a long-lived Unix-domain socket
    server over a durable store, turning {!Vo_core.Engine.commit_group}'s
    batch win (E10) into sustained throughput via {e pipelined group
    commit}.

    Many concurrent client connections speak a framed request/response
    protocol (frames are the journal wire format — {!Netio}); each
    connection runs snapshot {!Session}s against the server's committed
    workspace. A [commit] request does not reply immediately: it
    {e parks} on the current {e flush window}, and the window flushes —
    {!Session.commit_window} over every parked session (one merged
    {!Vo_core.Engine.commit_group} when the sessions are clean and
    conflict-free) plus {e one} journal append and fsync for the whole
    batch — on the first of three triggers: {e size} (the window holds
    [flush_window] parked commits), {e age} (the oldest parked commit is
    [flush_interval_ns] old) or {e quiesce} (the event loop finds no
    input waiting: the window absorbs exactly the commits that arrive
    while the previous flush runs, which is the classic group-commit
    discipline). The server decides a commit exactly as
    [penguin session commit] does: a session overtaken by the store
    re-derives its statements, and a session's edits of one tuple
    commit in arrival order. Culprits — a session whose updates collide
    with an earlier parked commit in the window ([conflict]), cannot be
    re-derived after the store advanced ([conflict]), or are named by
    the merged validation's sequential replay ([invalid]) — are answered
    with per-request typed errors while the rest of the batch lands.

    Admission is the core's: past [max_parked] parked commits, or 128
    statements queued in one session, a request is shed at once with
    {!Error.Busy}. A {!Resilience.Breaker} guards each window's durable
    append — when repeated durability faults trip it, each window's
    commits are refused with {!Error.Busy} while [oql] reads keep
    serving through the materialized {!Viewobject.Cache} (degraded
    read-only serving).
    Request handling, oql reads and each flush's window commit are
    timed regions ({!Obs.Trace.with_span}); the commit and flush
    latencies, which span loop turns, are observed from tick times
    into {!Obs.Metrics}, with the [server.*] counters.

    {2 Core and event loop}

    Every decision above lives in {!Server_core}, a step function from
    events (a decoded frame, a connection opened or closed, a clock
    tick, an append result, a follower ack) to actions (send, close,
    append, relay). {!serve} is the event loop around it: it turns
    [select], [accept] and [recv] into events and carries out the
    actions against the sockets, the {!Recovery.Appender} and
    {!Shipper}. The loop never
    blocks in [select] while a live connection that is free to read
    holds a complete buffered frame — in particular not after a flush
    unparks a connection whose client pipelined frames behind its
    [commit].

    {2 Wire protocol}

    One request sexp per frame, one response frame per request, in
    order. Responses to [commit] are deferred until its window flushes;
    further frames pipelined on that connection wait behind the ack.

    {v
    (ping)                 -> (ok pong)
    (begin)                -> (ok (begun V))
    (queue "OBJ" "STMT")   -> (ok (queued N))          N staged so far
    (commit)               -> (ok (committed N) (versions v1 .. vN))
    (oql "OBJ" "QUERY")    -> (ok (instances N) "rendered text")
    (stats)                -> (ok (stats) "metrics registry JSON")
    (shutdown)             -> (ok bye)                  flushes, then stops
    any error              -> (error KIND RETRYABLE "message")
    v}

    [KIND] is {!Error.kind}'s label and [RETRYABLE] {!Error.retryable} —
    enough for {!Client} to reconstruct a typed error. A frame that
    fails its checksum or exceeds the length bound is answered in-band
    with a [corrupt] error and that connection closed; the accept loop
    and every other connection keep serving. A connection that
    disconnects while parked has its staged updates dropped from the
    window; the rest of the batch lands.

    {2 Replication}

    The server is the one follower-feed listener. It answers the feed
    protocol ([(snapshot)], [(journal OFF)], [(head)]) from its own
    files through {!Shipper.accept}, and [(subscribe OFF)]
    converts a connection into a push follower (or is refused with one
    [(error ...)] frame and the connection closed): new journal bytes
    are streamed to it right after every window's append — replication
    latency is the link, not a polling tick — and its [(ack V)] frames,
    the version it holds durably, feed the replication tracker. A
    window whose append makes a journal rotation due rotates right
    after its record is relayed and before its clients are answered
    ({!Recovery.Appender.rotate}): the snapshot is rewritten at the
    window's version and the journal replaced by a header there, which
    is relayed next, so a push stream crosses the rotation.

    With [sync_replicas = K > 0] the tracker gates client acks: a
    flushed window is locally durable (fsynced) but its batched
    [(ok (committed ...))] responses park until K {e healthy} followers
    ack versions at or past the window's last version — the window
    whose append rotates the journal included. A window
    that waits longer than [repl_deadline_ns] resolves by [on_lag]:
    [Degrade] acks with a trailing [(warning under_replicated)] — the
    commit is durable here and will reach followers eventually — while
    [Fail] sheds with {!Error.Deadline_exceeded} (the commit {e is}
    durable locally; the error reports unmet replication, so it is not
    retryable). Followers that miss a deadline are evicted from the
    quorum set and re-admitted when their acked version catches back
    up to the committed one. *)

(** Policy for a window whose replication deadline passes with fewer
    than [sync_replicas] follower acks. *)
type on_lag = Server_core.on_lag = Degrade | Fail

type config = Server_core.config = {
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

type stats = Server_core.stats = {
  requests : int;  (** frames answered, including errors *)
  commits : int;  (** commit requests acked durable *)
  windows : int;  (** flushes that persisted at least one commit *)
}

val serve :
  ?io:Fsio.t ->
  ?net:Netio.net ->
  ?config:config ->
  ?breaker:Resilience.Breaker.t ->
  store:string ->
  sock:string ->
  unit ->
  (stats, Error.t) result
(** Open the store ({!Recovery.open_store}, repairing any torn tail),
    take its cross-process lock for the server's lifetime (a serving
    store has exactly one writer — CLI commits against it are held off,
    not raced), attach a materialized {!Viewobject.Cache} for reads,
    and serve [sock] until a [(shutdown)] request. Each window's append
    runs under [breaker], with transient faults retried inside it, so
    an open breaker refuses a window once, without touching the disk.
    [breaker] defaults to a fresh default breaker; the fault tests pass
    one that trips at the first fault and cools down in a millisecond.
    [io] is the durability layer's injectable seam — the fault tests
    drive degraded read-only serving through it — and [net] (default
    {!Netio.default_net}) the socket seam the tests wrap with link
    faults for partition chaos. Returns serving totals after a clean
    shutdown. *)
