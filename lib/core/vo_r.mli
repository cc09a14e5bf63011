(** Algorithm VO-R: translation of replacement requests (Section 5.3).

    A depth-first walk over the object's tree of relations, starting in
    state R at the pivot. Island nodes are processed in state R
    (replacing): identical projections produce nothing (case R-1),
    matching keys produce a database replacement (R-2), and differing
    keys produce a key replacement (R-3) — gated by the translator's key
    policy, with the delete-old-and-merge-with-existing variant requiring
    its own permission. Nodes outside the island are processed in state I
    (inserting): matching keys fall back to R handling (I-1), a new key
    triggers an insertion when absent from the database (I-2), nothing
    when an identical tuple exists (I-3), and a replacement when values
    conflict (I-4) — the last two gated by the outside-relation
    modification policy.

    Cases I-2..I-4 are VO-CI's cases 2, 1 and 3 outside the island
    ({!Vo_ci.case_op} on the new tuple). A sub-instance that appears only
    in the new instance is inserted by VO-CI's walk
    ({!Vo_ci.insert_extended}; island conflicts reject), and an island sub-instance that the new
    instance drops is deleted by VO-CD's {!Vo_cd.island_cascade} from the
    original database. I-1 and the referencing-peninsula branch check the
    translator with {!Vo_ci.permit}.

    Key-handling rules (Section 5.3): replacements on island elements
    translate literally; a replacement of the key of a {e referenced}
    relation leads to an insertion; key replacements on referencing
    peninsulas are prohibited (their foreign keys are instead rewritten by
    the validation step when an island key changes, per
    {!Structural.Integrity.key_replacement_fixups}). *)

open Relational
open Structural
open Viewobject

val translate :
  Schema_graph.t ->
  Database.t ->
  Definition.t ->
  Translator_spec.t ->
  old_instance:Instance.t ->
  new_instance:Instance.t ->
  (Op.t list, string) result
(** Produces walk operations, then the structural fix-ups induced by
    island key replacements, then the recursive dependency insertions of
    global validation. *)
