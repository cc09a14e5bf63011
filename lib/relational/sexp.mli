(** Minimal S-expressions: the textual carrier for saved definitions
    (PENGUIN saves view-object definitions, not data — "only its
    definition is saved"; see {!Penguin.Store}).

    Atoms are bare when they contain no whitespace, parentheses, quotes
    or control characters, and double-quoted with [\\]-escapes
    otherwise. *)

type t =
  | Atom of string
  | List of t list

val atom : string -> t
val list : t list -> t

val equal : t -> t -> bool

val to_string : t -> string
(** Printed on one line: a list's elements separated by one space. An
    atom's newlines are escaped, so the result holds no newline and
    {!parse} reads it back. *)

val add_atom : Buffer.t -> string -> unit
(** Print an atom as {!to_string} does: bare, or quoted with escapes. *)

val pp : Format.formatter -> t -> unit
(** {!to_string}. *)

val parse : string -> (t, string) result
(** Parse one S-expression (surrounding whitespace allowed; [;] starts a
    comment to end of line). *)

val parse_many : string -> (t list, string) result

(** {1 Decoding helpers} *)

val as_atom : t -> (string, string) result
val as_list : t -> (t list, string) result

val keyed : string -> t list -> (t list, string) result
(** [keyed k items] finds the unique list element of the form
    [List (Atom k :: rest)] and returns [rest]. *)

val keyed_opt : string -> t list -> t list option
val keyed_all : string -> t list -> t list list
(** All elements of the form [List (Atom k :: rest)], each as [rest]. *)
