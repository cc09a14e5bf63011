(** A minimal JSON value type with a printer and a parser.

    The observability layer speaks JSON at its edges — a server's
    [(stats)] answer ([penguin client stats]), the benchmark harness's
    [--json] output, the trace line emitter — and the CI regression gate
    reads it back. This module is
    the single (zero-dependency) implementation both sides share, so
    every JSON document the system writes round-trips through its own
    parser. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, single-line rendering (no newlines anywhere): a finite
    number is printed with the fewer of 15 and 17 significant digits
    that {!parse} reads back equal, NaN and the infinities as [null];
    strings are escaped per RFC 8259. *)

val pp : Format.formatter -> t -> unit
(** Indented multi-line rendering, for human-facing output. *)

val parse : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed). Errors
    carry the byte offset of the failure. *)

val equal : t -> t -> bool

(** {1 Decoding helpers} *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing field or non-object. *)

val to_float : t -> float option
(** [Num] payload; [None] otherwise (including [Null]). *)

val to_str : t -> string option

val to_list : t -> t list option
(** [Arr] payload. *)
