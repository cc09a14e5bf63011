(** Algorithm VO-CI: translation of complete-insertion requests
    (Section 5.2).

    For each tuple in each projection of the new instance there are three
    cases:
    - {b Case 1} an identical tuple exists: reject if the relation is in
      the dependency island, do nothing otherwise;
    - {b Case 2} no tuple with the new key exists: insert;
    - {b Case 3} a tuple with the same key exists but some nonkey values
      differ: reject in the island, replace outside (when the translator
      permits).

    Attributes projected out of the object are left [Null] on insertion
    ("how this operation is handled is dependent on the application";
    [Null] padding is this implementation's application choice, cf.
    DESIGN.md).

    VO-R ({!Vo_r}) reuses these cases: it inserts a sub-instance that
    appears only in the new instance with {!insert_extended}, and its
    cases I-2..I-4 are {!case_op} outside the island (I-2 is case 2, I-3
    case 1 and I-4 case 3). VO-CI and VO-R ask {!permit} before they
    insert into or modify an outside relation. *)

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
(** Includes the global-validation insertions (missing owners, subset
    parents and referenced tuples, recursively). *)

val permit :
  Translator_spec.t ->
  label:string ->
  string ->
  [ `Insert | `Modify ] ->
  (unit, string) result
(** [permit spec ~label rel action] is [Ok ()] when the translator lets
    relation [rel] be modified during insertions or replacements and
    allows [action] on it (inserting a new tuple, or modifying an existing
    one); otherwise the refusal, naming node [label]. *)

val case_op :
  Schema_graph.t ->
  Database.t ->
  Translator_spec.t ->
  in_island:bool ->
  label:string ->
  string ->
  Tuple.t ->
  (Op.t option, string) result
(** [case_op g db spec ~in_island ~label rel tuple] classifies one extended
    instance tuple of node [label] against [db] (which reflects the ops of
    the same request emitted so far) and returns the case's op: [None] for
    case 1 outside the island, an insertion for case 2, a replacement for
    case 3 outside the island; island conflicts (cases 1 and 3) and
    refusals of {!permit} are errors. *)

val insert_extended :
  Schema_graph.t ->
  Database.t ->
  Translator_spec.t ->
  island:string list ->
  Instance.t ->
  (Database.t * Op.t list, string) result
(** [insert_extended g db spec ~island inst] runs {!case_op} on every
    tuple of the extended (sub-)instance [inst], parent before children,
    each against [db] updated by the ops emitted before it ([island] holds
    the island's node labels). Returns the updated database and the ops,
    in emission order; global validation is not included. *)
