(** Snapshot sessions with optimistic concurrency control (OCC), and
    the one procedure that decides every commit.

    A session captures a workspace snapshot and its commit-log version
    ({!begin_}); view-object requests then {!queue} as staged updates —
    translated and trial-applied against the snapshot, but not
    published. {!commit_window} commits a list of sessions against the
    workspace the caller presents {e now} (which may have advanced past
    the snapshots): a session whose staged updates no delta committed
    since its snapshot overlaps keeps them verbatim; a diverged one
    {e rebases} — each update is re-derived against the current state
    through its retry — once, against that fixed workspace. Both
    [penguin session commit] ({!commit}, a window of one) and
    [penguin serve]'s flush window call it, so an update statement
    changes the database the same way however it arrives.

    Every update statement, whatever its entry point ([penguin update],
    [penguin session], [penguin serve]), is staged by
    {!queue_stmt} and committed here: one statement, one transaction.

    Everything is a persistent value: concurrency is modelled by
    several sessions (or single-shot {!Workspace.update}s) advancing
    the same workspace between another session's [begin_] and
    [commit]. *)

open Relational

type t

val begin_ : Workspace.t -> t
(** Snapshot the workspace and record its version. A session has no
    bound of its own, so a statement stages the same updates from the
    CLI and from the server; [penguin serve] bounds the statements a
    connection queues ({!Server_core}). *)

val base_version : t -> int

type retry = Workspace.t -> (Vo_core.Request.t option, Error.t) result
(** Re-derive a request against a later workspace state, for rebases.
    [Ok None] means the request became a no-op (e.g. a concurrent
    commit already made the change) and should be dropped. *)

val queue :
  t -> string -> ?retry:retry -> Vo_core.Request.t -> (t, Error.t) result
(** Stage a request on the named object against the snapshot. Errors
    with {!Error.Invalid} on unknown objects, translation rejections,
    and ops that do not apply to the snapshot. Queueing is O(1) — the
    arrival order is materialized once, at commit. [retry] (default:
    replay the same request) is how a rebase re-derives this update
    against a newer state — a request embeds the instance image it was
    read from, so replaying it verbatim is rejected as stale whenever
    the rebase was actually needed; callers that can re-evaluate the
    originating edit should pass it ({!queue_stmt} does). Queued
    updates writing the same key are committed in arrival order (see
    {!commit_window}). *)

val queue_stmt : t -> string -> string -> (t, Error.t) result
(** [queue_stmt s object_name stmt] evaluates an update statement
    ({!Upql.requests}) against the session's snapshot and queues one
    request per matching instance, so that {!commit} commits the whole
    statement or none of it. A statement that does not parse or
    evaluate, or one whose edit or translation is refused for some
    instance, is {!Error.Invalid} and queues nothing. Each request's
    retry re-derives its own instance (found by pivot key) from the
    statement: it reports a no-op when that instance no longer needs
    the change, and refuses with {!Error.Conflict} when the statement
    now matches an instance it did not match at the snapshot. *)

val pending : t -> int
val staged : t -> Vo_core.Engine.staged list

(** How the workspace has moved relative to the session's staged
    updates. *)
type divergence =
  | Clean  (** nothing committed since, or only non-overlapping deltas *)
  | Conflicting of Delta.conflict list
      (** a concurrent delta overlaps a staged footprint *)
  | Unknown_history
      (** a barrier (database swap, raw SQL) hides the history *)

val divergence : Workspace.t -> t -> divergence

type outcome = {
  versions : int list;
      (** the commit-log version of each committed update, in order *)
  rebased : bool;  (** the session diverged and was re-derived *)
}

val commit_window :
  Workspace.t -> t list -> Workspace.t * (outcome, Error.t) result list
(** Commit the sessions, in order, onto the given (current) workspace:
    the new workspace, with one commit-log entry per committed update,
    and each session's verdict, in the order given. Pure — nothing is
    published but the returned value.

    - A diverged session re-derives its updates through their retries;
      an update that cannot be re-derived fails the session with
      {!Error.Conflict}. An update whose retry reports a no-op is
      dropped.
    - A session's own updates of the same tuple commit in arrival
      order: each round commits one conflict-free group, and the
      updates it left out are re-derived against its result. If one
      cannot be re-derived (a statement whose instances collide with
      each other, such as a rename of several courses to one id), the
      session fails with {!Error.Invalid} naming the update's statement
      and the reason — unless another session committed in the window,
      when it is {!Error.Conflict}.
    - A session with an update that collides with an earlier session's
      gets {!Error.Conflict} (retryable from a fresh session).
    - A session the merged validation names as the culprit gets
      {!Error.Invalid}, and the rest are retried without it. If no
      culprit can be named, every remaining session fails.

    A failed session leaves no trace: the window is re-run without it.
    A window of clean, conflict-free sessions runs one
    {!Vo_core.Engine.plan_groups} and one
    {!Vo_core.Engine.commit_group}. *)

type commit_stats = {
  version : int;  (** log version after the commit *)
  attempts : int;  (** 0 for the empty session, 2 if it rebased, else 1 *)
  rebased : bool;
  committed : int;  (** updates applied (queued minus rebase no-ops) *)
}

val commit :
  ?deadline_ns:float ->
  Workspace.t ->
  t ->
  (Workspace.t * commit_stats, Error.t) result
(** Commit one session: {!commit_window} on a window of one. Fails with
    {!Error.Deadline_exceeded} without trying when [deadline_ns]
    (absolute, on {!Obs.Metrics.now_ns}) has passed. [attempts] is 0 for the empty session (which commits
    trivially), 2 when the session rebased and 1 otherwise. *)
