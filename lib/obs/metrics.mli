(** A process-wide metrics registry: monotonic counters, gauges, and
    latency histograms.

    Every primitive is O(1) on the hot path — a counter increment is a
    flag test plus an integer store, a histogram observation a flag
    test plus a bucket index read off the value's binary exponent and
    mantissa — and the whole layer collapses to the flag test when
    disabled ({!enable} has not been called), so instrumented code pays
    one branch in production-off mode. See DESIGN.md §5.4 for the
    metric-name taxonomy and the disabled-mode guarantees.

    A latency histogram named [<region>_ns] is recorded by
    {!Obs.Trace.with_span}, which also emits the region's trace span:
    one call times one region for both. Only histograms whose
    observations are not one region's duration (the server's
    tick-timed commit and flush latencies) call {!Histogram.observe}
    directly.

    Metrics are registered once (by name, at first use) and live for
    the process; {!reset} zeroes values but keeps registrations, so a
    test can measure one scenario in isolation. The registry is
    domain-safe: counters and gauges are [Atomic.t] cells (increments
    are fetch-and-add, so concurrent recorders never tear a count),
    histograms serialize their multi-field updates behind a
    per-histogram mutex, and registration itself is mutex-guarded. The
    recorders that share one registry across domains are a
    [Penguin.Server] run in its own domain beside in-process clients —
    the server, replica, quorum and observability tests — and the
    two-domain hammer in the observability suite. A metric is its name:
    DESIGN.md §5.4 says what each one records. *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

external now_ns : unit -> (float[@unboxed])
  = "obs_monotonic_ns_byte" "obs_monotonic_ns"
[@@noalloc]
(** Monotonic time in nanoseconds since an unspecified start
    ([CLOCK_MONOTONIC]): the span, latency and deadline timebase. A
    step of the system clock does not move it, so a duration is never
    negative; a reading means nothing to another process. *)

(** {1 Counters} *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

val counter : string -> Counter.t
(** Register (or fetch, if already registered) the named counter.
    @raise Invalid_argument if the name is registered as another kind. *)

(** {1 Gauges} *)

module Gauge : sig
  type t

  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

val gauge : string -> Gauge.t

(** {1 Histograms}

    Every histogram has the same log-linear layout: 8 sub-buckets per
    octave from 1 ns to 2{^36} ns (about 69 s), plus one overflow
    bucket; values below 1 ns share the first bucket. A bucket's upper
    bound is at most 12.5% above any value it holds. *)

module Histogram : sig
  type t

  val name : t -> string
  (** The name it is registered under. *)

  val observe : t -> float -> unit
  (** Record one observation (nanoseconds for latency histograms) when
      metrics are enabled. *)

  val count : t -> int
  val sum : t -> float
  val max_value : t -> float

  val quantile : t -> float -> float
  (** [quantile h q] (0 ≤ q ≤ 1): the upper bound of the bucket holding
      the ⌈q·n⌉-th smallest of the [n] observations (at least the
      first), clamped to the observed maximum. For observations between
      1 ns and 2{^36} ns the figure is at least [exact], that order
      statistic, and at most [1.125 *. exact]. 0 when the histogram is
      empty. *)

  val buckets : t -> (float * int) list
  (** (upper bound, count) pairs of the non-empty buckets, in bound
      order; the overflow bucket's bound is [infinity]. *)
end

val histogram : string -> Histogram.t
(** Register (or fetch, if already registered) the named histogram.
    @raise Invalid_argument if the name is registered as another kind. *)

(** {1 Registry} *)

type metric =
  | Counter_m of Counter.t
  | Gauge_m of Gauge.t
  | Histogram_m of Histogram.t

val all : unit -> (string * metric) list
(** (name, metric), sorted by name. *)

val reset : unit -> unit
(** Zero every registered metric's value (registrations survive). *)

val to_json : unit -> Json.t
(** The whole registry as one JSON object:
    [{"counters": {name: value, ...},
      "gauges": {name: value, ...},
      "histograms": {name: {"count": n, "sum_ns": s, "max_ns": m,
                            "p50_ns": ..., "p90_ns": ..., "p99_ns": ...}}}]
    — what a running server answers to [(stats)]. *)
