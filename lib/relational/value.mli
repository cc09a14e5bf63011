(** Atomic values stored in relations.

    The domain system is deliberately small: integers, floats, strings,
    booleans, and [Null]. [Null] is a first-class value used by the
    reference-connection integrity rules of the structural model (a
    referencing attribute may be nullified instead of deleted). *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

(** Domain (type) of a value. [Null] inhabits every domain. *)
type domain =
  | DInt
  | DFloat
  | DStr
  | DBool

val compare : t -> t -> int
(** Total order: [Null] < [Bool] < [Int] < [Float] < [Str]; ints and
    floats compare numerically within their constructors. *)

val equal : t -> t -> bool

val is_null : t -> bool

val domain_of : t -> domain option
(** [domain_of v] is [None] for [Null], [Some d] otherwise. *)

val conforms : domain -> t -> bool
(** [conforms d v] holds when [v] is [Null] or belongs to [d]. *)

val domain_name : domain -> string

val domain_of_name : string -> domain option
(** Inverse of {!domain_name}; recognizes ["int"], ["float"], ["string"],
    ["bool"] (case-insensitive). *)

val pp : Format.formatter -> t -> unit
(** Human-readable form: strings are quoted, [Null] prints as [null]. *)

val pp_plain : Format.formatter -> t -> unit
(** Unquoted form used in table cells and instance renderings. *)

val to_plain_string : t -> string
(** The {!pp_plain} form as a string, built without a formatter. *)

val pp_domain : Format.formatter -> domain -> unit

val to_string : t -> string
(** [to_string v] is [Fmt.str "%a" pp v]. *)

val float_to_string : float -> string
(** Shortest decimal rendering that parses back to the same float. *)

val parse : domain -> string -> (t, string) result
(** Parse a literal of the given domain; ["null"] parses to [Null] in any
    domain. Used by the SQL-ish DML and the CSV loader. *)
