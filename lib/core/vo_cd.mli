(** Algorithm VO-CD: translation of complete-deletion requests
    (Section 5.1).

    "Isolate the dependency island; for each projection in the island,
    delete all matching tuples from the underlying relation; identify the
    referencing peninsulas; for each peninsula, perform a replacement on
    the foreign key of each matching tuple. In a case where replacements
    are not allowed on any of the referencing peninsulas, the transaction
    cannot be completed and has to be rolled back."

    Global integrity maintenance then propagates the deletions across
    outgoing ownership and subset connections (repeatedly if necessary)
    and fixes the foreign keys of any further referencing relations —
    this implementation computes both through
    {!Structural.Integrity.cascade_delete}, whose closure starts from the
    island tuples of the instance.

    VO-R ({!Vo_r}) deletes an island sub-instance that the new instance
    drops through the same {!island_cascade}. *)

open Relational
open Structural
open Viewobject

val translate :
  Schema_graph.t ->
  Database.t ->
  Definition.t ->
  Translator_spec.t ->
  Instance.t ->
  (Op.t list, string) result
(** The instance must be current (each island tuple must exist in the
    database and agree on its bound attributes). The resulting operation
    list deletes every island tuple of the instance, everything those
    deletions force, and repairs or removes referencing tuples according
    to the translator's per-connection reference actions. *)

val island_cascade :
  Schema_graph.t ->
  Database.t ->
  Translator_spec.t ->
  island:string list ->
  Instance.t ->
  (Op.t list, string) result
(** [island_cascade g db spec ~island inst] collects the tuples of the
    extended (sub-)instance [inst] whose nodes are in [island] (labels),
    checking each against [db] with {!Instance_db.verify_current}, and
    closes those deletions under {!Structural.Integrity.cascade_delete}
    with the translator's delete policy. *)
