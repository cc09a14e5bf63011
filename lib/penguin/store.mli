(** Saving and loading workspaces.

    "A view object is an uninstantiated window onto the underlying
    database; that is, only its definition is saved" (Section 3). This
    module persists exactly the definitional state of a {!Workspace.t} —
    relation schemas, structural connections, view-object definitions and
    their translators — plus, optionally, the base data, as a single
    S-expression document in one fixed layout:

    {v
    (penguin-workspace
     (version V)
     (schemas
      (schema NAME (attrs (a int) ...) (key ...))
      ...)
     (connections
      (connection ownership R1 R2 (on (...) (...)))
      ...)
     (objects
      (object NAME PIVOT <node>)
      ...)
     (translators
      (translator NAME ...)
      ...)
     (data
      (relation NAME
       (row (attr <value>) ...)
       ...)
      ...))
    v}

    Each top-level element is on its own line, each item of a section (a
    schema, a connection, an object, a translator, a relation) on its
    own line, printed flat by {!Relational.Sexp.to_string}, and each data
    row on its own line. The readers ignore layout. *)

open Relational

val value_to_sexp : Value.t -> Sexp.t
val tuple_to_sexp : Tuple.t -> Sexp.t

val definition_to_sexp : Viewobject.Definition.t -> Sexp.t
val definition_of_sexp :
  Structural.Schema_graph.t -> Sexp.t -> (Viewobject.Definition.t, string) result
(** Edges are stored by connection id and direction, and resolved against
    the given graph — a definition only makes sense over its schema. *)

val translator_to_sexp : Vo_core.Translator_spec.t -> Sexp.t
val translator_of_sexp : Sexp.t -> (Vo_core.Translator_spec.t, string) result

val instance_to_sexp : Viewobject.Instance.t -> Sexp.t

(** {1 The row reader}

    Values, rows and instances are read from text by streaming over
    {!Relational.Sexp.Lexer}'s tokens, without building a tree. Each
    reader is given the first token of its expression (already read) and
    consumes the whole expression, also when it refuses it. *)

val read_value : Sexp.Lexer.t -> Sexp.Lexer.token -> (Value.t, string) result
(** What {!value_to_sexp} writes: [null] or [(TAG ATOM)], for the tags
    [int], [float], [str] and [bool]. *)

val read_row : Sexp.Lexer.t -> Sexp.Lexer.token -> (Tuple.t, string) result
(** What {!tuple_to_sexp} writes: [(row (ATTR VALUE) ...)]. *)

val instance_of_string : string -> (Viewobject.Instance.t, string) result
(** One instance as {!instance_to_sexp} prints it. *)

val save : ?include_data:bool -> ?epoch:int -> Workspace.t -> string
(** Render the workspace ([include_data] defaults to [true]). The
    document records the workspace's commit-log version, so a loaded
    snapshot knows where the {!Journal} takes over. Past [epoch] 0
    (the default) the header also records the leader epoch of the
    lineage the state belongs to, as [(epoch E)]. *)

val load : string -> (Workspace.t, string) result
(** The loaded workspace's log is {!Commit_log.of_version} of the
    recorded version (its past is a barrier — the deltas live in the
    journal, if any); documents predating the version field load at
    version 0 with full (empty) history. *)

val load_snapshot : string -> (Workspace.t * int, string) result
(** {!load}, and the epoch the document records (0 if none).

    One pass over the text: the header sections are read as trees, the
    data section by the row reader, without a tree, and each relation is
    built by {!Relational.Relation.insert_all} once the header has given
    its schema. A document is refused with the error a tree reader gave:
    its first syntax error if it has one, else the header's first fault,
    else the first relation item (in file order) holding a malformed row,
    a duplicate key or a nonconforming row, else a bad version or epoch.
    Two data sections are refused as a duplicate. *)

val save_file :
  ?include_data:bool -> ?io:Fsio.t -> Workspace.t -> string ->
  (unit, Error.t) result
(** Atomic: writes a tmp file in the target's directory, fsyncs, then
    renames over the target — a crash mid-save leaves the old file
    intact. [io] (default the real filesystem) is the fault-injection
    seam; failures are typed {!Error.Io}. *)

val load_file : string -> (Workspace.t, string) result
(** {!load} of the file's bytes, read through [Fsio.default]; a missing
    or unreadable file is an [Error]. *)
