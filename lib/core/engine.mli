(** The four-step view-object update pipeline (Section 5), refactored
    into a staged, group-committable serving core.

    1. local validation against the view-object definition;
    2. propagation within the view object;
    3. translation into database update operations;
    4. global validation against the structural model.

    Steps 1–3 are view-object decomposition ({!translate}); {!stage}
    additionally executes the translated operations against a candidate
    state and captures the resulting {!Relational.Delta.t} — a
    first-class, replayable artifact. {!commit_group} applies a batch of
    staged updates whose deltas are pairwise conflict-free in one step,
    with a {e single} incremental global-validation pass over the merged
    delta. {!apply} — the original single-request pipeline — is a thin
    wrapper: stage, then commit a singleton group. *)

open Relational
open Structural
open Viewobject

type outcome = {
  request_kind : string;
  ops : Op.t list;  (** translation result (empty when rejected early) *)
  result : Transaction.outcome;
  delta : Delta.t;  (** the net change committed; empty on rollback *)
}

val translate :
  Schema_graph.t ->
  Database.t ->
  Definition.t ->
  Translator_spec.t ->
  Request.t ->
  (Op.t list, string) result
(** Steps 1–3 only: the database-operation sequence the request denotes
    under the chosen translator, without applying it. *)

(** {1 Staging} *)

(** A translated update, not yet committed: everything needed to apply,
    validate, merge, or replay it against a compatible base state. *)
type staged = {
  request : Request.t;
  request_kind : string;
  object_name : string;
  ops : Op.t list;
  delta : Delta.t;  (** net change the ops make on [base_db] *)
  reads : Delta.footprint;
      (** the delta's footprint widened with every instance key the
          translation was phrased against — what session-level OCC
          checks against concurrently committed deltas *)
  base_version : int;  (** commit-log version the caller staged against *)
  base_db : Database.t;
  candidate : Database.t;  (** [base_db] with [ops] applied *)
}

type stage_error =
  | Translation_rejected of string  (** steps 1–3 refused the request *)
  | Application_failed of {
      ops : Op.t list;
      reason : string;
      failed_op : Op.t option;
    }  (** translation succeeded but an op did not apply *)

val stage_error_reason : stage_error -> string

val stage :
  ?base_version:int ->
  Schema_graph.t ->
  Database.t ->
  Definition.t ->
  Translator_spec.t ->
  Request.t ->
  (staged, stage_error) result
(** Steps 1–3 plus candidate application, without global validation or
    publication. [base_version] (default 0) tags the staged value with
    the commit-log version of [db] for later OCC. *)

(** {1 Group commit} *)

type group_rejection =
  | Group_conflict of {
      left : int;
      right : int;
      conflict : Delta.conflict;
    }  (** staged updates at these indices change the same key *)
  | Group_op_failed of {
      index : int;
      reason : string;
      failed_op : Op.t option;
    }
  | Group_validation_failed of {
      culprit : int option;
      reason : string;
    }
      (** step 4 rejected the batch; [culprit] is the index identified
          by the sequential fallback replay (None if the batch only
          fails merged — which indicates a checker divergence) *)

val group_rejection_reason : group_rejection -> string

val commit_group :
  ?validation:Global_validation.mode ->
  Schema_graph.t ->
  Database.t ->
  staged list ->
  (Database.t * Delta.t, group_rejection) result
(** Apply a batch of staged updates to [db] atomically: merge their
    deltas (rejecting on any write overlap), apply every op list in
    order, and run {e one} global-validation pass over the merged delta.
    This is sound because conflict-free deltas commute: the merged delta
    read against the final state is truthful, so incremental validation
    of the merge equals validating each update against its intermediate
    state (E10 cross-checks this in [Paranoid] mode). On a validation
    failure the batch is replayed sequentially to name the culprit.
    Returns the committed state and the merged delta; [db] is never
    modified (persistence). The empty batch commits trivially. *)

val plan_groups : staged list -> staged list list
(** Greedy partition of staged updates into conflict-free groups, in
    arrival order: each group is committable by {!commit_group}; groups
    must be committed one after another (later groups' deltas collide
    with earlier ones). A conflict-free batch yields a single group. *)

(** {1 Single-request pipeline} *)

val apply :
  ?validation:Global_validation.mode ->
  Schema_graph.t ->
  Database.t ->
  Definition.t ->
  Translator_spec.t ->
  Request.t ->
  outcome
(** Full pipeline: {!stage} followed by {!commit_group} of the singleton
    group. On success the outcome's [result] is [Committed db'].
    Rejections during translation and integrity violations detected in
    step 4 both yield [Rolled_back] with the reason; the input database
    is never modified (persistence).

    [validation] (default {!Global_validation.Incremental}) selects how
    step 4 re-establishes consistency: incrementally against the
    transaction's delta, with a full database sweep, or both
    cross-checked ([Paranoid]). Incremental validation is sound
    whenever the input database satisfies the structural model — which
    holds for every database the engine itself committed. Pass
    [~validation:Full] when the input state is of unknown integrity
    (e.g. data loaded from outside the engine). *)

val apply_exn :
  ?validation:Global_validation.mode ->
  Schema_graph.t -> Database.t -> Definition.t -> Translator_spec.t ->
  Request.t -> Database.t
(** @raise Failure with the rollback reason on rejection. *)

val committed : outcome -> Database.t option
val pp_outcome : Format.formatter -> outcome -> unit
