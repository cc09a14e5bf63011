(** The PENGUIN workspace: a structural schema, a database, and a catalog
    of view objects with their definition-time translators.

    This is the system facade the examples and the CLI drive: define
    objects by pruning the expansion tree, choose translators by dialog,
    query, and update — with every update request going through the
    four-step pipeline of {!Vo_core.Engine}. *)

open Relational
open Structural
open Viewobject

type t = {
  graph : Schema_graph.t;
  db : Database.t;
  objects : (string * Definition.t) list;
  translators : (string * Vo_core.Translator_spec.t) list;
  log : Commit_log.t;
      (** append-only audit/replay trail of committed updates; what
          {!Session} runs optimistic concurrency control against *)
}

val create : Schema_graph.t -> t
(** Workspace over an empty database with the graph's relations, each
    indexed on both endpoints of every structural connection
    ({!Structural.Schema_graph.create_database}). *)

val version : t -> int
(** Latest committed version ({!Commit_log.version} of the log). *)

val with_db : t -> Database.t -> t
(** Swap the database wholesale. The swap has no delta, so it is
    recorded as a {!Commit_log.barrier}: sessions begun earlier must
    rebase. *)

val run_sql : t -> string -> (t * Sql.answer list, string) result
(** Execute a SQL-ish script against the workspace database. *)

val define_object :
  ?metric:Metric.t ->
  t ->
  name:string ->
  pivot:string ->
  keep:(string * string list) list ->
  (t, string) result
(** Generate the expansion tree for the pivot and prune it
    ({!Viewobject.Generate.prune}); install the result. A permissive
    default translator is installed alongside until a dialog replaces
    it. *)

val define_full_object :
  ?metric:Metric.t -> t -> name:string -> pivot:string -> (t, string) result

val find_object : t -> string -> (Definition.t, string) result

val choose_translator :
  t -> string -> Vo_core.Dialog.answerer ->
  (t * Vo_core.Dialog.event list, string) result
(** Run the definition-time dialog for the named object and install the
    resulting translator. *)

val set_translator : t -> string -> Vo_core.Translator_spec.t -> t
val translator_of : t -> string -> (Vo_core.Translator_spec.t, string) result

val query :
  t -> string -> Vo_query.condition -> (Instance.t list, string) result

val instances : t -> string -> (Instance.t list, string) result
(** All instances of the named object. *)

val update : t -> string -> Vo_core.Request.t -> t * Vo_core.Engine.outcome
(** Apply one update request to the named object under its installed
    translator: {!Vo_core.Engine.apply}, whose outcome this returns. On
    commit the workspace database advances and the commit log gains an
    entry holding the outcome's delta; on rollback both are unchanged.
    Unknown object names yield a rejected outcome. Update statements
    do not come through here: they are staged with
    {!Session.queue_stmt} and committed whole by {!Session.commit}. *)

val oql : t -> string -> string -> (Instance.t list, string) result
(** [oql ws object query]: run a textual {!Viewobject.Oql} query. *)

(** {1 Materialized view-object cache}

    A {!Viewobject.Cache.t} can ride along a workspace lineage: attach
    it once, then {!sync_cache} after obtaining a new workspace value —
    what {!Session.commit}, the server's flush and
    {!Recovery.open_store} do when handed a cache. *)

val attach_cache : ?mode:Cache.mode -> t -> Cache.t
(** A cache on this workspace's database with every installed object
    registered, positioned at {!version}. Entries build lazily on first
    read (or eagerly via {!Viewobject.Cache.warm}). *)

val sync_cache : t -> Cache.t -> unit
(** Bring the cache to this workspace's state: replay the commit-log
    deltas since the cache's position as one composed net delta
    (patching only affected entries), or invalidate when the history is
    hidden (a barrier), rewound, or contradicts the cached state. *)

val check_consistency : t -> (unit, string) result
