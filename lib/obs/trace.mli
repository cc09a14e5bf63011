(** Timed regions: where a request's time goes, step by step.

    A region is one timed stretch of execution (a pipeline stage, a
    journal append, a session rebase), and {!with_span} is the one call
    that times it. A region is named by its registered latency
    histogram [<region>_ns]: the call records the region's duration
    there when metrics are enabled, and, when a sink is installed, it
    also emits a span named [<region>] — both from one pair of clock
    reads. Spans nest — a span opened while another is active records
    it as its parent — and carry string tags (the validation mode, the
    object name, the rebase cause). Finished spans are delivered to
    the installed {!type-sink}; with no sink installed and metrics
    disabled the call is two flag tests and the thunk.

    Span ids are unique per process run, dense from 1; [parent = 0]
    marks a root span. See DESIGN.md §5.4 for the region table. *)

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

val with_span :
  ?tags:(string * string) list -> Metrics.Histogram.t -> (unit -> 'a) -> 'a
(** [with_span h f] runs [f] as the region [h] names: its duration is
    recorded into [h] (when metrics are enabled) and emitted as a span
    named after [h] without its [_ns] suffix (when a sink is
    installed). Both happen whether the thunk returns or raises. With
    no sink and metrics disabled, exactly the thunk. *)

val tag : string -> string -> unit
(** Attach a tag to the innermost open span (no-op when none is open
    or tracing is off) — for facts only known mid-span, e.g. how many
    updates a commit rebased. *)

(** {1 Sinks}

    Any [span -> unit] closure is a sink: a test collects spans with
    one that conses onto a list. *)

val channel_sink : out_channel -> sink
(** Write one {!sexp_line} per finished span to the channel (the
    [--trace FILE] emitter). The channel is flushed per line, so a
    crashed process leaves at most the in-flight line incomplete. *)

(** {1 Line format} *)

val sexp_line : span -> string
(** [(span (id N) (parent N) (depth N) (name "...") (start_ns N)
    (dur_ns N) (tags (k "v") ...))] — parses with {!Relational.Sexp}. *)
