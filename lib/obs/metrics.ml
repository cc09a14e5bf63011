(* Domain-safe: counters and gauges are [Atomic.t] cells (an increment
   is one fetch-and-add — no torn counts when a server domain and its
   in-process clients record at once), histograms serialize
   multi-field observations behind a per-histogram mutex, and
   registration takes a registry mutex. The enabled flag stays a plain
   ref: readers race it, but a stale read only delays enabling by one
   operation, never corrupts a value. *)

let on = ref false
let enable () = on := true
let disable () = on := false
let enabled () = !on

external now_ns : unit -> (float[@unboxed])
  = "obs_monotonic_ns_byte" "obs_monotonic_ns"
[@@noalloc]

module Counter = struct
  type t = int Atomic.t

  let incr c = if !on then Atomic.incr c
  let add c n = if !on then ignore (Atomic.fetch_and_add c n)
  let value c = Atomic.get c
end

module Gauge = struct
  type t = float Atomic.t

  let set g v = if !on then Atomic.set g v

  let add g v =
    if !on then begin
      let rec cas () =
        let cur = Atomic.get g in
        if not (Atomic.compare_and_set g cur (cur +. v)) then cas ()
      in
      cas ()
    end

  let value g = Atomic.get g
end

(* One layout for every histogram: 8 sub-buckets per octave from 1 ns
   to 2^36 ns (~68.7 s), then one overflow bucket. Bucket [i] covers
   [2^o * (1 + s/8), 2^o * (1 + (s+1)/8)) for o = i / 8, s = i mod 8, so
   its upper bound is at most 12.5% above anything it holds. Values
   below 1 ns share the first bucket. *)
let sub_buckets = 8
let octaves = 36
let overflow = octaves * sub_buckets
let limit = Float.ldexp 1. octaves

let bucket_of v =
  if v < 1. then 0
  else if not (v < limit) then overflow
  else
    (* v = m * 2^e with 0.5 <= m < 1: octave e - 1, and the eighth of
       it is read off the mantissa. *)
    let m, e = Float.frexp v in
    ((e - 1) * sub_buckets) + int_of_float ((m -. 0.5) *. 16.)

let upper_bound i =
  if i >= overflow then infinity
  else
    Float.ldexp
      (1. +. (Float.of_int ((i mod sub_buckets) + 1) /. Float.of_int sub_buckets))
      (i / sub_buckets)

module Histogram = struct
  type t = {
    name : string;
    counts : int array;  (* overflow + 1 buckets *)
    mutable count : int;
    mutable sum : float;
    mutable max_v : float;
    lock : Mutex.t;
        (* An observation updates four fields; the mutex keeps them
           mutually consistent across domains. Uncontended lock/unlock
           is tens of ns — noise next to the µs-scale regions recorded. *)
  }

  let make name =
    {
      name;
      counts = Array.make (overflow + 1) 0;
      count = 0;
      sum = 0.;
      max_v = 0.;
      lock = Mutex.create ();
    }

  let locked h f =
    Mutex.lock h.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock h.lock) f

  let name h = h.name

  let observe h v =
    if !on then begin
      let b = bucket_of v in
      locked h @@ fun () ->
      h.counts.(b) <- h.counts.(b) + 1;
      h.count <- h.count + 1;
      h.sum <- h.sum +. v;
      if v > h.max_v then h.max_v <- v
    end

  let count h = locked h (fun () -> h.count)
  let sum h = locked h (fun () -> h.sum)
  let max_value h = locked h (fun () -> h.max_v)

  let quantile h q =
    locked h @@ fun () ->
    if h.count = 0 then 0.
    else
      let rank = max 1 (int_of_float (Float.ceil (q *. Float.of_int h.count))) in
      let rec go i seen =
        let seen = seen + h.counts.(i) in
        if seen >= rank || i = overflow then Float.min (upper_bound i) h.max_v
        else go (i + 1) seen
      in
      go 0 0

  let buckets h =
    locked h @@ fun () ->
    List.filter_map
      (fun i -> if h.counts.(i) = 0 then None else Some (upper_bound i, h.counts.(i)))
      (List.init (overflow + 1) Fun.id)

  let reset h =
    locked h @@ fun () ->
    Array.fill h.counts 0 (Array.length h.counts) 0;
    h.count <- 0;
    h.sum <- 0.;
    h.max_v <- 0.
end

type metric =
  | Counter_m of Counter.t
  | Gauge_m of Gauge.t
  | Histogram_m of Histogram.t

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let registered f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let counter name =
  registered @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some (Counter_m c) -> c
  | Some _ ->
      invalid_arg
        (Printf.sprintf "metric %s is already registered as another kind" name)
  | None ->
      let c = Atomic.make 0 in
      Hashtbl.replace registry name (Counter_m c);
      c

let gauge name =
  registered @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some (Gauge_m g) -> g
  | Some _ ->
      invalid_arg
        (Printf.sprintf "metric %s is already registered as another kind" name)
  | None ->
      let g = Atomic.make 0. in
      Hashtbl.replace registry name (Gauge_m g);
      g

let histogram name =
  registered @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some (Histogram_m h) -> h
  | Some _ ->
      invalid_arg
        (Printf.sprintf "metric %s is already registered as another kind" name)
  | None ->
      let h = Histogram.make name in
      Hashtbl.replace registry name (Histogram_m h);
      h

let all () =
  registered (fun () ->
      Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset () =
  List.iter
    (fun (_, m) ->
      match m with
      | Counter_m c -> Atomic.set c 0
      | Gauge_m g -> Atomic.set g 0.
      | Histogram_m h -> Histogram.reset h)
    (all ())

let to_json () =
  let counters, gauges, histograms =
    List.fold_left
      (fun (cs, gs, hs) (name, m) ->
        match m with
        | Counter_m c ->
            (name, Json.Num (Float.of_int (Counter.value c))) :: cs, gs, hs
        | Gauge_m g -> cs, (name, Json.Num (Gauge.value g)) :: gs, hs
        | Histogram_m h ->
            let fields =
              [
                "count", Json.Num (Float.of_int (Histogram.count h));
                "sum_ns", Json.Num (Histogram.sum h);
                "max_ns", Json.Num (Histogram.max_value h);
                "p50_ns", Json.Num (Histogram.quantile h 0.5);
                "p90_ns", Json.Num (Histogram.quantile h 0.9);
                "p99_ns", Json.Num (Histogram.quantile h 0.99);
              ]
            in
            cs, gs, (name, Json.Obj fields) :: hs)
      ([], [], [])
      (List.rev (all ()))
  in
  Json.Obj
    [
      "counters", Json.Obj counters;
      "gauges", Json.Obj gauges;
      "histograms", Json.Obj histograms;
    ]
