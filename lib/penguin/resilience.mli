(** Bounded-cost responses to classified faults: retry with backoff and
    deadlines, and a circuit breaker into degraded read-only mode.
    Admission control is the server's own ({!Server_core}).

    Everything here routes on {!Error.retryable} / {!Error.breaker_fault}
    — the taxonomy decides {e whether} to retry or trip; this module
    decides {e how long} and {e how often}. Time is injectable
    ({!Clock}), so the property tests drive hours of backoff in
    microseconds, and every delay is derived from a seeded deterministic
    jitter — the same policy, seed and attempt always sleep the same
    nanoseconds, which is what makes the fault suite reproducible.

    Events flow into {!Obs.Metrics}: [resilience.retries] (sleeps
    taken), [resilience.giveups] (retryable error, attempts exhausted),
    [resilience.deadline_hits], and the breaker's [breaker.trips] /
    [breaker.rejections] / [breaker.probes] / [breaker.closes] /
    [breaker.reopens]. *)

(** Injectable time: a monotonic-enough clock and a sleep. *)
module Clock : sig
  type t = {
    now_ns : unit -> float;
    sleep_ns : float -> unit;
  }

  val real : t
  (** Wall clock + [Unix.sleepf]. *)

  val instant : unit -> t
  (** A virtual clock starting at 0 whose [sleep_ns] advances [now_ns]
      without waiting — backoff-heavy tests run in microseconds while
      still observing exact schedules. Each call makes a fresh,
      independent clock. *)
end

(** Retry policies: bounded attempts, exponential backoff, seeded
    jitter. *)
module Policy : sig
  type t = {
    max_attempts : int;  (** total attempts, >= 1 (1 = no retry) *)
    base_delay_ns : float;  (** backoff before attempt 2 *)
    max_delay_ns : float;  (** cap on any single backoff *)
    multiplier : float;  (** growth per attempt (2.0 = doubling) *)
    jitter : float;
        (** 0..1: each delay is scaled by a deterministic factor drawn
            uniformly from [1-jitter, 1+jitter] *)
    seed : int;  (** jitter stream seed *)
  }

  val default : t
  (** 5 attempts, 1 ms base doubling to a 100 ms cap, 20% jitter,
      seed 0. *)

  val backoff_ns : t -> attempt:int -> float
  (** Delay after failed attempt [attempt] (1-based). Deterministic in
      [(policy, attempt)]: [base * multiplier^(attempt-1)], capped at
      [max_delay_ns], scaled by the seeded jitter factor. *)

  val schedule : t -> float list
  (** All [max_attempts - 1] backoff delays, in order — what the
      determinism property test asserts against. *)
end

val retry :
  ?policy:Policy.t ->
  ?clock:Clock.t ->
  ?deadline_ns:float ->
  ?label:string ->
  (unit -> ('a, Error.t) result) ->
  ('a, Error.t) result
(** Run the function, retrying {!Error.retryable} failures up to
    [policy.max_attempts] total attempts with the policy's backoff
    between them. Non-retryable errors return immediately. When
    [deadline_ns] (absolute, on [clock]) is given: an attempt never
    starts past the deadline, and a backoff that would overshoot it is
    not slept — both return {!Error.Deadline_exceeded} naming the last
    underlying error. [label] names the operation in the error message
    and the trace span tag. *)

(** A circuit breaker guarding the durable write path.

    Closed (normal) → [K] consecutive {!Error.breaker_fault} failures →
    Open: writes are rejected with {!Error.Busy} — the store is in
    {e degraded read-only mode} (reads never pass through the breaker
    and keep working). After [cooldown_ns] the next write becomes a
    Half_open probe: success re-closes the breaker, another durability
    fault re-opens it for a fresh cooldown. Transient faults, OCC
    conflicts and caller errors neither count toward tripping nor reset
    the count — only a success resets. *)
module Breaker : sig
  type t

  type state = Closed | Open | Half_open

  val create :
    ?label:string ->
    ?threshold:int ->
    ?cooldown_ns:float ->
    ?clock:Clock.t ->
    unit ->
    t
  (** [threshold] (default 3) consecutive durability faults trip;
      [cooldown_ns] (default 5 s) before a half-open probe. *)

  val state : t -> state
  (** The current state, accounting for cooldown expiry (an Open
      breaker whose cooldown has passed reports [Half_open]). *)

  val degraded : t -> bool
  (** [state t <> Closed] — the store is (or is probing out of)
      degraded read-only mode. *)

  val protect : t -> (unit -> ('a, Error.t) result) -> ('a, Error.t) result
  (** Run a write under the breaker. Open: reject with {!Error.Busy}
      without running. Half_open: run as the single probe. The
      result's {!Error.breaker_fault} classification drives the state
      machine. *)

  val reset : t -> unit
  (** Force-close (operator override / test isolation). *)
end
