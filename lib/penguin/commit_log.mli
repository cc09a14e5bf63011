(** The workspace's append-only commit log: one entry per committed
    update, recording the version it produced, its net
    {!Relational.Delta.t}, and the request kind — the audit/replay trail
    session-level optimistic concurrency control validates against.

    Versions are dense: the empty log is at version 0 and every
    {!append} or {!barrier} advances it by one. A {e barrier} is an
    entry whose delta is unknown (a wholesale database swap, a raw SQL
    script, a log loaded from persistent storage without its history):
    it conflicts with everything staged before it. *)

open Relational

type change =
  | Delta of Delta.t  (** net change of a committed update *)
  | Barrier of string  (** unknown change; conflicts with everything *)

type entry = {
  version : int;  (** version {e after} this change *)
  change : change;
  kind : string;  (** request kind, for audit *)
}

type t

val empty : t

val of_version : int -> t
(** A log known only to be at the given version: its past is a barrier
    (any session staged earlier must rebase). Used when the version
    survives persistence but the deltas do not. *)

val version : t -> int
val length : t -> int

val truncated : t -> int
(** Version up to (and including) which the history is not held: entries
    at or below it were dropped by {!of_version} (persistence) or by
    {!trim}. [0] for {!empty}. *)

val append : t -> delta:Delta.t -> kind:string -> t
val barrier : t -> string -> t

val append_entry : t -> entry -> (t, string) result
(** Extend the log with a replayed entry. Versions are dense, so the
    entry's recorded version must be exactly [version t + 1]; anything
    else is a corrupt or mismatched journal and errors. *)

val entries : t -> entry list
(** Oldest first. *)

val entries_since : t -> int -> entry list
(** Entries with version greater than the given one, oldest first,
    prefixed with a synthetic barrier when that part of the history has
    been truncated. Its cost is proportional to what it returns, not to
    the length of the log. *)

val trim : t -> keep_after:int -> t
(** Drop the entries at or below [keep_after] (clamped to {!version}),
    raising {!truncated} to it; the identity when [keep_after] is at or
    below {!truncated}. Asking for history below the new floor then
    meets the "history truncated" barrier, so a session begun there
    rebases.

    The one caller is [penguin serve]'s leader: after every persisted
    window, {!Server_core} trims its log to the {e retention floor}, the
    oldest version a later window can ask about — the minimum of the
    workspace's version (the cache position and the next append's
    [since]) and the base of every open or parked session. An idle open
    session therefore pins the history since its [(begin)]. A follower
    cuts its log with {!of_version} at each journal rotation it
    follows; the CLI loads its log with {!of_version}. *)

val footprint_since : t -> int -> Delta.footprint option
(** Union of the footprints of every delta committed after the given
    version — what a session's staged updates must not collide with.
    [None] when a barrier intervenes (conflict must be assumed). *)

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit
