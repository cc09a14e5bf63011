(** Relation instances: a schema plus a set of tuples keyed by their
    primary-key values.

    The structure is persistent (immutable); all mutating operations
    return a new relation, which is what makes transactional rollback in
    {!Transaction} trivial. *)

type t

type error =
  | Duplicate_key of Value.t list
  | No_such_key of Value.t list
  | Nonconforming of string

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val empty : Schema.t -> t
val schema : t -> Schema.t
val name : t -> string
val cardinality : t -> int
val is_empty : t -> bool

val insert : t -> Tuple.t -> (t, error) result
(** Fails on nonconformance or duplicate key. Tuples are padded with
    [Null] for declared attributes left unbound (unless they are key
    attributes, which must be non-null). *)

val insert_all : t -> Tuple.t list -> (t, error) result
(** The bulk constructor (a store load's path): the relation with every
    tuple inserted, as {!insert} of each in order would give it, and the
    same error — the first tuple, in list order, that does not conform
    or whose key is taken. It is built from one sorted run: the tuples
    are checked, sorted once by key (a run already in key order is not
    re-sorted), duplicates are found between neighbours, and the key map
    and each secondary index are built once. *)

val delete_key : t -> Value.t list -> (t, error) result
val delete_tuple : t -> Tuple.t -> (t, error) result
(** Delete by the key of the given tuple. *)

val replace : t -> old_key:Value.t list -> Tuple.t -> (t, error) result
(** Replace the tuple whose key is [old_key] by the new tuple (whose key
    may differ; the new key must not collide with a third tuple). *)

val lookup : t -> Value.t list -> Tuple.t option
val mem_key : t -> Value.t list -> bool
val mem_tuple : t -> Tuple.t -> bool
(** True when a tuple with the same key exists and is entirely equal on
    all declared attributes. *)

val find_matching : t -> Tuple.t -> Tuple.t option
(** Tuple with the same key values as the given (possibly partial)
    tuple. *)

val select : Predicate.t -> t -> Tuple.t list
(** Tuples satisfying the predicate, in key order. A lookup when the
    predicate fixes the whole primary key ({!Predicate.fixed_key}): the
    one tuple with that key, if [p] holds on it. A scan otherwise. *)

(** {1 Secondary indexes}

    A relation may carry any number of secondary indexes, each over an
    attribute list and mapping attribute values to the ordered set of
    primary keys carrying them. Indexes are maintained by {!insert},
    {!delete_key} and {!replace} in O(log n) per index; a {!replace}
    that keeps the key and an index's values leaves that index as it
    was. They are consulted by {!lookup_eq} and {!exists_eq} — the
    equality lookups instantiation and integrity maintenance use to
    follow connections. They are derived state: not persisted, not part
    of {!equal}. *)

val create_index : t -> string list -> (t, error) result
(** Build (or rebuild) an index over the given non-empty attribute list,
    in one pass over the tuples. Unknown attributes yield
    [Nonconforming]. *)

val has_index : t -> string list -> bool
(** Attribute order does not matter. *)

val indexes : t -> string list list

val lookup_eq : t -> (string * Value.t) list -> Tuple.t list
(** Tuples agreeing with all bindings ([Null] bindings match nothing,
    per the connection-matching rule), in ascending key order. Uses an
    index over exactly the bound attributes when one exists (its posting
    set is walked in key order, nothing is sorted), a scan otherwise. *)

val exists_eq : t -> (string * Value.t) list -> bool
(** [exists_eq r b] is [lookup_eq r b <> []] without building the list:
    with an index it stops at the first live key of the posting set,
    without one the scan stops at the first match. *)

val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Tuple.t -> unit) -> t -> unit
val to_list : t -> Tuple.t list
(** In key order (deterministic). *)

val of_list : Schema.t -> Tuple.t list -> (t, error) result
val of_list_exn : Schema.t -> Tuple.t list -> t
val key_of : t -> Tuple.t -> Value.t list
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
