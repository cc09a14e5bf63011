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
    comment to end of line). Built on {!Lexer}. *)

val parse_many : string -> (t list, string) result

(** {1 Reading without a tree}

    The one tokenizer behind {!parse}, for decoders that stream a large
    document (a snapshot's data section, a journal record) straight into
    values instead of building its tree first. *)

module Lexer : sig
  type sexp := t
  type t
  (** A position in an input string, and the last token read. Syntax
      errors (worded as {!parse} words them) are raised by [next] and
      reported by {!decode}. *)

  type token = Open | Close | Atom | Eof

  val next : t -> token
  (** The next token; an atom's text is {!text}. *)

  val text : t -> string
  (** The last atom, unquoted and unescaped. *)

  val is : t -> string -> bool
  (** [is t a] is [text t = a], without copying the atom. *)

  val intern : t -> string
  (** {!text}, shared: the same string as an equal atom interned before
      on this lexer (the first 64 distinct atoms interned are kept) —
      for names that repeat through a document, such as attributes. *)

  type mark

  val mark : t -> mark
  (** Where the last token starts. *)

  val reset : t -> mark -> unit
  (** Go back, so that {!next} reads the marked token again. *)

  val read : t -> sexp
  (** The tree of the next expression. *)

  val skip : t -> token -> unit
  (** Consume the rest of the expression whose first token was just
      read. *)

  val elements : t -> (t -> token -> ('a, string) result) -> ('a list, string) result
  (** Inside a list, decode each remaining element with [f] (given its
      first token; [f] consumes the element) up to the list's [')'],
      stopping at the first error, after which the rest of the list is
      consumed. *)

  val not_a_list : t -> ('a, string) result
  (** The error for an atom where a list was expected, as {!as_list}
      words it. *)

  (** {2 Matching a list's shape}

      Inside {!shaped}, [want*] consume one token each and give up on
      anything else; [elem] reads an element's first token and gives up
      at the list's end. *)

  val shaped : t -> bad:string -> (unit -> ('a, string) result) -> ('a, string) result
  (** [shaped t ~bad f] runs [f] inside a list whose ['('] was just
      read. If [f] gives up, the rest of the list is consumed and the
      result is [Error bad]. *)

  val give_up : unit -> 'a
  val elem : t -> token
  val want : t -> string -> unit
  val want_atom : t -> unit
  val want_text : t -> string
  val want_open : t -> unit
  val want_close : t -> unit
end

val decode : string -> (Lexer.t -> Lexer.token -> ('a, string) result) -> ('a, string) result
(** Decode a one-expression input by streaming: [f] is given the first
    token and must consume the expression. When [f] fails, or input is
    left over, the input's first syntax error (as {!parse} reports it)
    wins over [f]'s error. *)

(** {1 Decoding helpers} *)

val as_atom : t -> (string, string) result
val as_list : t -> (t list, string) result

val keyed : string -> t list -> (t list, string) result
(** [keyed k items] finds the unique list element of the form
    [List (Atom k :: rest)] and returns [rest]. *)

val keyed_opt : string -> t list -> t list option
val keyed_all : string -> t list -> t list list
(** All elements of the form [List (Atom k :: rest)], each as [rest]. *)
