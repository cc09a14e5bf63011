module M = Obs.Metrics

let m_retries = M.counter "resilience.retries"
let m_giveups = M.counter "resilience.giveups"
let m_deadline_hits = M.counter "resilience.deadline_hits"
let m_trips = M.counter "breaker.trips"
let m_reopens = M.counter "breaker.reopens"
let m_closes = M.counter "breaker.closes"
let m_rejections = M.counter "breaker.rejections"
let m_probes = M.counter "breaker.probes"

module Clock = struct
  type t = {
    now_ns : unit -> float;
    sleep_ns : float -> unit;
  }

  let real =
    {
      now_ns = M.now_ns;
      sleep_ns = (fun ns -> if ns > 0. then Unix.sleepf (ns /. 1e9));
    }

  let instant () =
    let t = ref 0. in
    {
      now_ns = (fun () -> !t);
      sleep_ns = (fun ns -> if ns > 0. then t := !t +. ns);
    }
end

module Policy = struct
  type t = {
    max_attempts : int;
    base_delay_ns : float;
    max_delay_ns : float;
    multiplier : float;
    jitter : float;
    seed : int;
  }

  let default =
    {
      max_attempts = 5;
      base_delay_ns = 1e6;
      max_delay_ns = 1e8;
      multiplier = 2.;
      jitter = 0.2;
      seed = 0;
    }

  (* A deterministic unit draw in [0, 1) from (seed, attempt): a 48-bit
     LCG (the classic drand48 constants) keyed on both and iterated a
     few rounds so nearby keys decorrelate. Native-int arithmetic only —
     identical on every 64-bit platform, and independent of the global
     Random state (no hidden coupling between tests). *)
  let unit_draw seed attempt =
    let a = 25214903917 and c = 11 and mask = 0xFFFFFFFFFFFF in
    let s = ref (((seed * 0x9E3779B9) lxor (attempt * 0x85EBCA6B)) land mask) in
    for _ = 1 to 3 do
      s := ((!s * a) + c) land mask
    done;
    float_of_int (!s lsr 16) /. 4294967296.

  let backoff_ns p ~attempt =
    if p.base_delay_ns <= 0. then 0.
    else
      let raw =
        p.base_delay_ns *. (p.multiplier ** float_of_int (attempt - 1))
      in
      let capped = Float.min raw p.max_delay_ns in
      let factor = 1. -. p.jitter +. (2. *. p.jitter *. unit_draw p.seed attempt) in
      capped *. factor

  let schedule p =
    List.init (max 0 (p.max_attempts - 1)) (fun i -> backoff_ns p ~attempt:(i + 1))
end

let retry ?(policy = Policy.default) ?(clock = Clock.real) ?deadline_ns
    ?(label = "operation") f =
  let expired last =
    M.Counter.incr m_deadline_hits;
    Obs.Trace.tag "deadline" "exceeded";
    Error
      (Error.Deadline_exceeded
         (match last with
         | None -> Fmt.str "%s: deadline exceeded" label
         | Some e ->
             Fmt.str "%s: deadline exceeded after retryable error: %s" label
               (Error.to_string e)))
  in
  let past extra =
    match deadline_ns with
    | None -> false
    | Some d -> clock.Clock.now_ns () +. extra > d
  in
  let rec attempt n =
    if past 0. then expired None
    else
      match f () with
      | Ok _ as ok ->
          if n > 1 then Obs.Trace.tag "retries" (string_of_int (n - 1));
          ok
      | Error e when Error.retryable e ->
          if n >= policy.Policy.max_attempts then begin
            M.Counter.incr m_giveups;
            Obs.Trace.tag "retries_exhausted" (string_of_int (n - 1));
            Error e
          end
          else
            let delay = Policy.backoff_ns policy ~attempt:n in
            if past delay then expired (Some e)
            else begin
              clock.Clock.sleep_ns delay;
              M.Counter.incr m_retries;
              attempt (n + 1)
            end
      | Error _ as err -> err
  in
  attempt 1

module Breaker = struct
  type state = Closed | Open | Half_open

  type t = {
    label : string;
    threshold : int;
    cooldown_ns : float;
    clock : Clock.t;
    mutable st : state;
    mutable consecutive : int;
    mutable opened_at : float;
  }

  let create ?(label = "store") ?(threshold = 3) ?(cooldown_ns = 5e9)
      ?(clock = Clock.real) () =
    if threshold < 1 then
      invalid_arg "Resilience.Breaker.create: threshold must be >= 1";
    { label; threshold; cooldown_ns; clock; st = Closed;
      consecutive = 0; opened_at = 0. }

  (* Cooldown expiry is observed lazily: the state only moves Open ->
     Half_open when someone looks, which keeps the breaker free of
     timers and makes it exact under virtual clocks. *)
  let settle t =
    if t.st = Open
       && t.clock.Clock.now_ns () -. t.opened_at >= t.cooldown_ns
    then t.st <- Half_open

  let state t =
    settle t;
    t.st

  let degraded t = state t <> Closed

  let trip t =
    t.st <- Open;
    t.opened_at <- t.clock.Clock.now_ns ();
    t.consecutive <- 0

  let reset t =
    t.st <- Closed;
    t.consecutive <- 0

  let protect t f =
    settle t;
    match t.st with
    | Open ->
        M.Counter.incr m_rejections;
        Obs.Trace.tag "breaker" "open";
        Error
          (Error.Busy
             (Fmt.str
                "%s: circuit open after repeated durability failures — \
                 degraded read-only mode (writes refused; probe in %.0f ms)"
                t.label
                ((t.cooldown_ns -. (t.clock.Clock.now_ns () -. t.opened_at))
                /. 1e6)))
    | (Closed | Half_open) as before -> (
        if before = Half_open then begin
          M.Counter.incr m_probes;
          Obs.Trace.tag "breaker" "probe"
        end;
        match f () with
        | Ok _ as ok ->
            if before = Half_open then M.Counter.incr m_closes;
            t.st <- Closed;
            t.consecutive <- 0;
            ok
        | Error e as err ->
            (if Error.breaker_fault e then
               match before with
               | Half_open ->
                   M.Counter.incr m_reopens;
                   Obs.Trace.tag "breaker" "reopen";
                   trip t
               | Closed | Open ->
                   t.consecutive <- t.consecutive + 1;
                   if t.consecutive >= t.threshold then begin
                     M.Counter.incr m_trips;
                     Obs.Trace.tag "breaker" "trip";
                     trip t
                   end);
            err)
end
