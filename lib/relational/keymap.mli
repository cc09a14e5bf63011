(** Persistent maps over tuple keys (lists of {!Value.t}): the balanced
    trees behind {!Relation}'s key map and secondary indexes.

    The operations are the standard library's [Map]'s, specialized to
    one key type, plus {!of_sorted}: a map built from bindings already
    in key order in linear time, with no comparison — what lets a store
    load build a relation from one sorted run. *)

type key = Value.t list

val compare_key : key -> key -> int
(** [List.compare Value.compare]. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool
val singleton : key -> 'a -> 'a t
val add : key -> 'a -> 'a t -> 'a t
val remove : key -> 'a t -> 'a t
val find_opt : key -> 'a t -> 'a option
val mem : key -> 'a t -> bool
val cardinal : 'a t -> int

val iter : (key -> 'a -> unit) -> 'a t -> unit
(** In ascending key order, as {!fold} and {!keys}. *)

val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
val exists : (key -> 'a -> bool) -> 'a t -> bool
val keys : 'a t -> key list

val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool

val of_sorted : int -> key:(int -> key) -> data:(int -> 'a) -> 'a t
(** [of_sorted n ~key ~data] maps [key i] to [data i] for [0 <= i < n],
    given keys that strictly ascend with [i] (unchecked). *)
