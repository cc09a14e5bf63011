(** Tuples: finite maps from attribute name to {!Value.t}.

    Tuples are schema-agnostic records of bindings; conformance to a
    schema is checked separately with {!conforms}, so the same tuple value
    can travel between a relation, a projection of it inside a view
    object, and an update request. *)

type t

val empty : t

val make : (string * Value.t) list -> t
(** Later bindings win on duplicate names. *)

val get : t -> string -> Value.t
(** [Null] when the attribute is absent. *)

val get_opt : t -> string -> Value.t option
val mem : t -> string -> bool
val set : t -> string -> Value.t -> t
val remove : t -> string -> t
val attributes : t -> string list
(** Attribute names in lexicographic order. *)

val bindings : t -> (string * Value.t) list

val iter : (string -> Value.t -> unit) -> t -> unit
(** In attribute-name order, as {!bindings}. *)

val cardinal : t -> int
val union : t -> t -> t
(** [union a b]: bindings of [b] win on conflicts. *)

val project : string list -> t -> t
(** Keep only the listed attributes (absent ones are dropped, not
    nullified). *)

val project_null : string list -> t -> t
(** Like {!project} but absent attributes appear bound to [Null], so the
    result always has exactly the requested attributes. *)

val rename_attrs : (string * string) list -> t -> t
(** [rename_attrs [(old, new); ...] t] renames bindings; unmentioned
    bindings are kept. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val equal_on : string list -> t -> t -> bool
(** Equality restricted to the given attributes ([Null] = [Null]). *)

val key_of : Schema.t -> t -> Value.t list
(** Key values in key-declaration order ([Null] for absent). *)

val values_of : string list -> t -> Value.t list

val conforms : Schema.t -> t -> (unit, string) result
(** Checks that every schema attribute is bound to a domain-conforming
    value, that no extra attributes are bound, and that no key attribute
    is [Null]. *)

val matches : on:(string list * string list) -> t -> t -> bool
(** [matches ~on:(xs1, xs2) t1 t2] — the connection-matching test of
    Def. 2.1: values of [xs1] in [t1] equal values of [xs2] in [t2]
    positionally, and none is [Null]. *)

val has_nulls_on : string list -> t -> bool

val pp : Format.formatter -> t -> unit
