(** Structured trace spans: where a request's time goes, step by step.

    A span covers one named region of execution (a pipeline stage, a
    journal append, a session rebase). Spans nest — a span opened while
    another is active records it as its parent — and carry string tags
    (the validation mode, the object name, the rebase cause). Finished
    spans are delivered to the installed {!type-sink}; with no sink
    installed ({!active} is false) the whole layer is a single pointer
    test and instrumented code runs untraced.

    Span ids are unique per process run, dense from 1; [parent = 0]
    marks a root span. See DESIGN.md §5.4 for the span taxonomy. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  depth : int;  (** nesting depth at open time; roots are 0 *)
  name : string;
  mutable tags : (string * string) list;
  start_ns : float;
  mutable duration_ns : float;
}

type sink = span -> unit
(** Called once per span, at finish time (children before parents). *)

val set_sink : sink option -> unit
(** Install the sink ([None] disables tracing). Installing a sink also
    resets the id counter and the open-span stack. *)

val active : unit -> bool

val with_span : ?tags:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span of the given name. The span is
    finished (and emitted) whether the thunk returns or raises. With no
    sink installed, exactly the thunk. *)

val tag : string -> string -> unit
(** Attach a tag to the innermost open span (no-op when none is open
    or tracing is off) — for facts only known mid-span, e.g. how many
    updates a commit rebased. *)

(** {1 Sinks} *)

module Ring : sig
  (** A fixed-capacity in-memory sink holding the most recent spans —
      the default destination when no file sink is given. *)

  type t

  val create : int -> t
  val sink : t -> sink
  val contents : t -> span list
  (** Oldest first; at most [capacity] spans. *)

  val clear : t -> unit
end

val channel_sink : out_channel -> sink
(** Write one {!sexp_line} per finished span to the channel (the
    [--trace FILE] emitter). The channel is flushed per line, so a
    crashed process leaves at most the in-flight line incomplete. *)

(** {1 Line format} *)

val sexp_line : span -> string
(** [(span (id N) (parent N) (depth N) (name "...") (start_ns N)
    (dur_ns N) (tags (k "v") ...))] — parses with {!Relational.Sexp}. *)
