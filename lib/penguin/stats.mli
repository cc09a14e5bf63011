(** The [penguin stats] workload and its renderings.

    A CLI process is short-lived, so a metrics registry scraped at exit
    would be empty unless something ran first. [penguin stats] therefore
    drives a small, representative slice of traffic through every
    instrumented layer — engine updates, a clean session commit, a
    forced OCC rebase, a durable store round-trip with journal append,
    rotation and a torn-tail repair, plus one full integrity sweep — and then renders the
    registry. The same functions back the CLI and
    the observability tests, so what the tests parse is exactly what
    the CLI prints. *)

val exercise : ?updates:int -> unit -> (unit, string) result
(** Run the representative workload against the university fixture
    ([updates] grade changes, each a one-statement session, default 8). Purely
    in-memory except for a temporary store under the system temp
    directory, which is removed before returning. Metrics accumulate in
    the global {!Obs.Metrics} registry (enable it first); trace spans
    flow to whatever sink is installed. *)

val table : unit -> string
(** The registry as an aligned human-readable table. *)

val json : unit -> Obs.Json.t
(** The registry as JSON (see {!Obs.Metrics.to_json}). *)
