(** Dynamic creation of view-object instances from base relations
    (the query-model half of Section 3; Figure 4).

    Instantiation binds "the set of relational tuples satisfying the
    query to the view object's structure": for each qualifying pivot
    tuple one instance is assembled by walking the tree, fetching for
    every child node the tuples of its relation connected — through the
    node's full connection path — to the parent tuple. *)

open Relational
open Structural

val connected_via :
  Schema_graph.edge -> Database.t -> Tuple.t -> Tuple.t list
(** Full tuples of the edge's target relation connected to the given
    (full) tuple of its source: one equality lookup, served by a
    secondary index on the connecting attributes when one exists. Walked
    over {!Schema_graph.inverse} edges it maps a changed tuple back to
    the tuples that reach it. *)

val follow_path :
  Database.t -> Schema_graph.edge list -> Tuple.t -> Tuple.t list
(** Full tuples of the path's final relation connected to the given
    (full) tuple through the successive connections; deduplicated, in
    key order. *)

val of_pivot_tuple : Database.t -> Definition.t -> Tuple.t -> Instance.t
(** Assemble one instance from a {e full} pivot tuple (all attributes of
    the pivot relation bound). Node tuples in the result are projected to
    their node's attributes. *)

val instantiate :
  ?where:Predicate.t -> Database.t -> Definition.t -> Instance.t list
(** One instance per pivot tuple satisfying [where] (evaluated on full
    pivot tuples; defaults to all). *)

val extend_inherited :
  Schema_graph.t -> Definition.t -> Instance.t -> (Instance.t, string) result
(** Rewrite an instance so that every node's tuple also binds its
    inherited connecting attributes, copied from its (extended) parent
    through the last connection of the node's path. Fails on nodes that
    are not attached by a single connection (their inherited values are
    not derivable without consulting the database). This realizes the
    paper's convention that a node's tuple only carries its accessible
    key complement Aⱼ while the rest of its key is implicit in the
    nesting. *)

val full_key :
  Schema_graph.t -> Definition.t -> string -> Tuple.t -> (Value.t list, string) result
(** [full_key g vo label extended_tuple]: the database key of the node's
    underlying tuple, from a tuple already extended with inherited
    attributes. Fails if some key attribute is unbound or null. *)
