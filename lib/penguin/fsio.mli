(** The injectable filesystem seam under the durability layer.

    Everything {!Journal}, {!Recovery} and {!Store.save_file} do to disk
    goes through a record of five primitive operations, so tests can
    substitute implementations that crash at chosen points — after a
    partial write, before an fsync, before a rename — and assert that
    recovery restores a consistent state. The primitives are deliberately
    coarse (whole-content writes over open/write/close triples): each one
    is a distinct injection point with a well-defined on-disk effect.

    Failures are typed ({!Error.Io}): each carries the primitive, the
    path, and a transient flag classified from the errno
    ({!Error.of_unix}), which is what {!Resilience.retry} routes on.
    The tests' one disk model ([test/test_disk.ml]) implements [t] with
    the losses a kernel may inflict — pages a failed fsync dropped,
    renames not yet made durable by a directory fsync — and seeded
    faults and crash points. *)

type t = {
  read : string -> (string option, Error.t) result;
      (** Whole-file read; [Ok None] when the file does not exist. *)
  read_from :
    path:string -> off:int -> len:int option -> (string option, Error.t) result;
      (** Positioned read: the bytes of the file starting at byte [off],
          at most [len] of them when given (to end of file otherwise).
          [Ok None] when the file does not exist; [Ok (Some "")] when
          [off] is at or past the end — the two cases a tailer must
          distinguish (journal gone vs. no news yet). This is what lets
          a replica poll a leader's journal without re-reading the whole
          file each round. *)
  write : path:string -> append:bool -> string -> (unit, Error.t) result;
      (** Write the full content (create; truncate or append). Makes no
          durability promise — pair with {!field-sync}. *)
  sync : string -> (unit, Error.t) result;
      (** fsync the file (or directory) at the path. After a failure
          the pages it was to write may be gone while reads still return
          them: a later good fsync does not make them durable. *)
  rename : src:string -> dst:string -> (unit, Error.t) result;
      (** Atomic within a filesystem (POSIX rename). *)
  remove : string -> (unit, Error.t) result;
}

val default : t
(** The real filesystem (Unix-backed). Its [sync] of a directory that
    the filesystem refuses to fsync (EINVAL) succeeds: there is nothing
    more to make durable. *)

val atomic_write : t -> path:string -> string -> (unit, Error.t) result
(** Crash-safe whole-file replacement: write a staging file next to
    [path] (named uniquely per call, so concurrent writers never share
    one), fsync it, rename over [path], fsync the directory. A crash at
    any point leaves either the old or the new content at [path], never
    a mixture; once it returns [Ok], the new content is durable. A
    failed directory fsync fails the write, since the old content may
    come back. *)

val lock_path : string -> string
(** The lock-file path guarding [path]: [path ^ ".lock"]. *)

val with_lock :
  ?deadline_ns:float ->
  ?clock:Resilience.Clock.t ->
  string ->
  (unit -> ('a, Error.t) result) ->
  ('a, Error.t) result
(** Run the function while holding an exclusive advisory lock on
    {!lock_path}[ path] (created on demand). Serializes cross-process
    read-modify-write sequences against the file at [path] — e.g. the
    CLI's open-store → commit → persist. Without [deadline_ns],
    acquisition blocks until the current holder releases (the PR 3
    behaviour); with it, acquisition polls a non-blocking lock with a
    short growing backoff and gives up with {!Error.Deadline_exceeded}
    once [clock] (default the real one) passes the absolute deadline —
    a slow or dead-but-undetected holder costs a bounded wait, not a
    hang. The lock is released when the function returns, and by the OS
    if the process dies inside it. Advisory: every writer must take it;
    plain readers may go without (a reader racing a writer sees at
    worst a torn journal tail, which replay discards in memory).

    The lock file is always derived from the guarded path ({!lock_path}
    — [path ^ ".lock"]), never a fixed name, so each store has its own
    lock. Its holders are the CLI's [session commit], which holds it
    across reopen → rebase → persist; [Server.serve], which holds it for
    the serving process's whole lifetime (the {!Recovery.Appender}
    contract); and follower promotion, which holds it while it bumps
    the epoch. *)
