(** Structured deltas: the net effect of an operation sequence on a
    database, as per-relation change sets carrying both old and new
    tuple images.

    A delta is what incremental global validation consumes: instead of
    re-checking every connection against every tuple (O(|DB|)), the
    checker visits only the tuples a transaction touched, following
    connections incident to their relations. The delta is {e net}:
    recording an insert and then a delete of the same key cancels out,
    and an insert followed by a replace collapses to a single [Added]
    with the final image. Consequently a delta read against the
    post-transaction database is always truthful — every [Added] /
    [Updated] image is present, every [Removed] key is absent. *)

(** Net change to the tuple at one primary key. *)
type change =
  | Added of Tuple.t  (** key absent before, [t] stored now *)
  | Removed of Tuple.t  (** old image; key absent now *)
  | Updated of {
      before : Tuple.t;
      after : Tuple.t;
    }  (** same key, old and new stored images *)

type t

val empty : t
val is_empty : t -> bool

val cardinal : t -> int
(** Number of (relation, key) net changes. *)

val add : t -> rel:string -> key:Value.t list -> Tuple.t -> t
(** Record that [key] of [rel] now holds the stored image [t].
    Composes: [Removed t0] at the same key becomes
    [Updated {before = t0; after = t}]. *)

val remove : t -> rel:string -> key:Value.t list -> Tuple.t -> t
(** Record that [key] of [rel] (old image [t]) is gone. Composes:
    [Added _] cancels out, [Updated {before; _}] becomes
    [Removed before]. *)

val record : t -> rel:string -> key:Value.t list -> old_image:Tuple.t option -> new_image:Tuple.t option -> t
(** General entry point: [old_image]/[new_image] are the stored tuples
    at [key] before and after the operation (a key-changing replace is
    a [remove] at the old key plus an [add] at the new one). *)

val compose : t -> t -> t
(** [compose d1 d2]: the net effect of [d1] followed by [d2] — [d2] read
    against the state [d1] produced. Cancellations apply ([Added] then
    [Removed] vanishes; [Added] then [Updated] collapses to [Added] with
    the final image), so composing a commit sequence yields one delta
    truthful against the final state. Associative; [empty] is the
    identity. This is how a lagging consumer (e.g. the materialized
    view-object cache) catches up over several commits in one pass. *)

val relations : t -> string list
(** Relations with at least one net change, sorted. *)

val changes : t -> string -> change list
(** Net changes recorded for a relation (key order). *)

val bindings : t -> (string * (Value.t list * change) list) list
(** Every net change with its key, grouped by relation (both sorted) —
    the serializable image of the delta. *)

val of_bindings : (string * (Value.t list * change) list) list -> t
(** Rebuild a delta from {!bindings} output verbatim: changes are
    installed as given, not composed (a later change at a key already
    present simply wins). [of_bindings (bindings d)] equals [d]. *)

val fold : (string -> change -> 'a -> 'a) -> t -> 'a -> 'a
(** Over every net change of every relation. *)

val equal : t -> t -> bool
(** Same net changes (same relations, keys, and old/new images). *)

(** {1 Footprints, conflicts, and merging}

    The concurrent serving core ({!Vo_core.Engine} staging, group
    commit, and session-level optimistic concurrency control) treats a
    delta as a first-class artifact: two deltas staged against the same
    base state can be {e merged} and applied as one batch exactly when
    their footprints do not overlap. *)

type footprint
(** Per-relation read and write key sets. For a delta, every changed
    key is a write, and keys whose old image was consulted ([Removed],
    [Updated]) are also reads; callers may widen the read set with keys
    a translation depended on without changing
    ({!footprint_add_read}). *)

val footprint : t -> footprint
val empty_footprint : footprint
val footprint_add_read : footprint -> rel:string -> key:Value.t list -> footprint
val footprint_add_write : footprint -> rel:string -> key:Value.t list -> footprint
val footprint_union : footprint -> footprint -> footprint

val footprint_reads : footprint -> (string * Value.t list list) list
(** Sorted [(relation, keys)] pairs of the read set. *)

val footprint_writes : footprint -> (string * Value.t list list) list

type conflict_kind =
  | Write_write  (** both sides change the key *)
  | Write_read  (** one side changes a key the other side depends on *)

type conflict = {
  rel : string;
  key : Value.t list;
  kind : conflict_kind;
}

val conflicts : t -> t -> conflict list
(** Key overlaps between the two deltas' footprints, sorted and
    deduplicated ([Write_write] subsumes the [Write_read] it implies).
    Symmetric: [conflicts a b] and [conflicts b a] report the same
    conflicts. Empty iff the deltas commute and {!merge} succeeds. *)

val conflicts_footprint : footprint -> footprint -> conflict list
(** Like {!conflicts} on explicit (possibly widened) footprints. *)

val merge : t -> t -> (t, conflict) result
(** Disjoint union of the change sets: the net effect of applying both
    deltas, in either order, from the common base state. Errors with a
    witness on the first (relation, key) changed by both sides.
    Associative and commutative where defined. *)

val conflict_kind_name : conflict_kind -> string
val conflict_to_string : conflict -> string
val pp_conflict : Format.formatter -> conflict -> unit
val pp : Format.formatter -> t -> unit
