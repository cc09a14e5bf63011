(** A materialized store of instantiated view objects, maintained
    incrementally from committed {!Relational.Delta.t}s.

    Without it every read pays a full {!Instantiate.instantiate} walk;
    this module makes the read path incremental the way
    [Integrity.check_delta] makes the write path's check. Per registered
    definition the cache holds one {!Instance.t} per pivot tuple, keyed
    by the pivot's database key — the instance
    {!Instantiate.of_pivot_tuple} builds from that tuple — and on each
    committed delta it decides {e skip} / {e patch} / {e invalidate}:

    - {b skip} when [Delta.relations] is disjoint from the definition's
      dependency set (its {!Island} plus every relation on a connection
      path — peninsulas and reference targets included, since
      instantiation reads through them);
    - {b patch} otherwise: changed tuples are walked {e backwards}
      through the definition's connection chains
      ({!Instantiate.connected_via} over inverse edges, served by the
      same connection indexes as the forward walk) to the pivot keys
      they can influence; each such entry is rebuilt by
      {!Instantiate.of_pivot_tuple} against the new state, or dropped
      when its pivot tuple is gone. Rebuilding k keys costs k entry
      builds, never more than a cold build;
    - {b invalidate} (drop all entries, rebuild lazily) when the delta
      cannot be trusted: a history barrier, a delta whose old images
      contradict the cached state, or a Paranoid-mode divergence.

    Correctness bar: a cached read is observationally equal to a fresh
    {!Instantiate.instantiate} against the cache's database at every
    point in any commit sequence. The cache assumes a {e single
    lineage}: deltas fed to {!apply_delta} must describe the commits
    that actually led from the cache's database to [post] (the
    old-image cross-check catches most violations; {!Paranoid} mode
    catches the rest at full-reinstantiation cost). *)

open Relational
open Structural

type t

(** [Paranoid] cross-checks every patch against a full re-instantiation
    (mirroring [Engine.apply ~validation:Paranoid]): divergence drops
    the definition's entries and bumps the [divergences] counter rather
    than serving a wrong instance. *)
type mode =
  | Normal
  | Paranoid

val create : ?mode:mode -> Schema_graph.t -> db:Database.t -> t
(** A cache over the given database state, at log position 0 and with
    no registered definitions. *)

val mode : t -> mode
val db : t -> Database.t
(** The database state reads are served against. *)

val position : t -> int
(** Commit-log version the cache is synced to (bookkeeping for pull
    consumers such as [Penguin.Workspace.sync_cache]; {!apply_delta}
    does not change it). *)

val set_position : t -> int -> unit

val register : t -> Definition.t -> unit
(** Register a definition (idempotent by name; re-registering replaces
    and drops its entries). Entries are built lazily on first read, or
    eagerly via {!warm}. *)

val registered : t -> string list
(** Registered definition names, sorted. *)

val find_definition : t -> string -> Definition.t option

val warm : t -> unit
(** Build entries for every registered definition that is cold. *)

val instances : t -> string -> (Instance.t list, string) result
(** All instances of the named definition, in pivot-key order —
    observationally equal to [Instantiate.instantiate (db t) vo]. A
    cold definition is built first (a miss); a warm one is served from
    the store (a hit). *)

val query : t -> string -> Vo_query.condition -> (Instance.t list, string) result
(** {!instances} filtered by {!Vo_query.holds} — equal to
    [Vo_query.run (db t) vo condition]. A lookup when the condition's
    pivot predicate ({!Vo_query.pushdown}) fixes the whole pivot key
    ({!Relational.Predicate.fixed_key}): the one entry under that key is
    read and [holds] runs on it alone. Any other condition (a key under
    [or] or [not], part of a composite key, no key) scans every entry. *)

val oql : t -> string -> string -> (Instance.t list, string) result
(** Parse an OQL condition against the named definition and {!query}
    through the cache — the cached counterpart of {!Oql.run}, and a
    lookup in the same cases. *)

val apply_delta : t -> post:Database.t -> Delta.t -> unit
(** Advance the cache from its current database to [post], patching
    warm definitions whose dependency set intersects the delta's
    relations. The delta must be the net change from [db t] to [post]
    (compose intermediate commits with {!Delta.compose}); if its old
    images contradict the cached state the cache invalidates instead of
    patching. *)

val invalidate_all : t -> db:Database.t -> unit
(** Drop every definition's entries and rebase the cache on the given
    database (used on history barriers and divergence). *)

(** Monotonic per-cache totals (the process-wide [cache.*] metrics
    aggregate the same events across caches). *)
type stats = {
  hits : int;  (** reads served from a warm definition *)
  misses : int;  (** reads that had to build a cold definition *)
  patched : int;  (** entries rebuilt or dropped by a patch *)
  invalidated : int;  (** definitions dropped wholesale *)
  skipped : int;  (** per-definition delta skips (disjoint footprint) *)
  divergences : int;  (** Paranoid cross-check failures *)
}

val stats : t -> stats

val dependencies : t -> string -> string list
(** Dependency relations of a registered definition, sorted — the set
    intersected with [Delta.relations] for the skip decision (exposed
    for tests and EXPERIMENTS). *)
