(** Selection predicates evaluated against a single tuple.

    Used by relational selection, by view definitions in the Keller
    baseline, and (per-node) by the view-object query compiler. *)

type comparison =
  | Eq
  | Neq
  | Lt
  | Leq
  | Gt
  | Geq

(** Scalar expressions over one tuple. Arithmetic follows SQL-flavoured
    rules: [Null] propagates; two ints yield an int (integer division);
    any float operand promotes to float; type mismatches (and division
    by zero) yield [Null]. [S_concat] joins strings. *)
type scalar =
  | S_attr of string
  | S_const of Value.t
  | S_add of scalar * scalar
  | S_sub of scalar * scalar
  | S_mul of scalar * scalar
  | S_div of scalar * scalar
  | S_mod of scalar * scalar
  | S_neg of scalar
  | S_concat of scalar * scalar

type t =
  | True
  | False
  | Cmp of string * comparison * Value.t  (** attribute vs constant *)
  | Cmp_attr of string * comparison * string  (** attribute vs attribute *)
  | Cmp_scalar of scalar * comparison * scalar  (** computed operands *)
  | Is_null of string
  | Not_null of string
  | And of t * t
  | Or of t * t
  | Not of t

val eval_scalar : Tuple.t -> scalar -> Value.t

val eval : t -> Tuple.t -> bool
(** Comparisons involving [Null] are false (three-valued logic collapsed
    to false at the top, as in SQL's WHERE). [Is_null]/[Not_null] test
    nullness directly. *)

val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t
val eq : string -> Value.t -> t
val eq_str : string -> string -> t
val eq_int : string -> int -> t
val lt_int : string -> int -> t
val gt_int : string -> int -> t

val conj : t list -> t
(** Conjunction of a list ([True] for the empty list). *)

val attributes : t -> string list
(** Attribute names mentioned, without duplicates. *)

val fixed_key : string list -> t -> Value.t list option
(** [fixed_key key p] is the value of every attribute of [key] (in
    [key]'s order) when [p]'s positive conjunction binds each with [Eq]
    to a constant, [None] otherwise: a binding under [Or] or [Not], or a
    key left partly unbound, fixes nothing. Any tuple satisfying [p]
    carries that key, so a caller may look it up and then {!eval} [p]
    on the one tuple found. With conflicting bindings the first wins;
    the [eval] then rejects the tuple. *)

val matches_tuple : Tuple.t -> t
(** Predicate selecting exactly the tuples equal to the given one on its
    bound attributes. *)

val pp : Format.formatter -> t -> unit
val pp_comparison : Format.formatter -> comparison -> unit
val pp_scalar : Format.formatter -> scalar -> unit
