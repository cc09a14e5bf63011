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

let now_ns () = Unix.gettimeofday () *. 1e9

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

(* 1 µs .. ~16.8 s, doubling: wide enough for a single fsync'd commit
   and fine enough to separate the µs-scale pipeline stages. *)
let default_bounds = List.init 25 (fun i -> 1e3 *. Float.of_int (1 lsl i))

module Histogram = struct
  type t = {
    bounds : float array;  (* strictly increasing upper bounds *)
    counts : int array;  (* length = Array.length bounds + 1 (overflow) *)
    mutable count : int;
    mutable sum : float;
    mutable max_v : float;
    lock : Mutex.t;
        (* An observation updates four fields; the mutex keeps them
           mutually consistent across domains. Uncontended lock/unlock
           is tens of ns — noise next to the µs-scale spans recorded. *)
  }

  let make bounds =
    {
      bounds = Array.of_list bounds;
      counts = Array.make (List.length bounds + 1) 0;
      count = 0;
      sum = 0.;
      max_v = 0.;
      lock = Mutex.create ();
    }

  let locked h f =
    Mutex.lock h.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock h.lock) f

  (* The bucket walk is over a fixed-size array: O(1) per observation. *)
  let bucket_of h v =
    let n = Array.length h.bounds in
    let rec go i = if i >= n || v <= h.bounds.(i) then i else go (i + 1) in
    go 0

  let record h v =
    locked h @@ fun () ->
    let b = bucket_of h v in
    h.counts.(b) <- h.counts.(b) + 1;
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    if v > h.max_v then h.max_v <- v

  let observe h v = if !on then record h v
  let count h = locked h (fun () -> h.count)
  let sum h = locked h (fun () -> h.sum)
  let max_value h = locked h (fun () -> h.max_v)

  let quantile h q =
    locked h @@ fun () ->
    if h.count = 0 then 0.
    else
      let target = q *. Float.of_int h.count in
      let n = Array.length h.bounds in
      let rec go i seen =
        if i > n then h.max_v
        else
          let seen = seen + h.counts.(i) in
          if Float.of_int seen >= target then
            if i >= n then h.max_v else Float.min h.bounds.(i) h.max_v
          else go (i + 1) seen
      in
      go 0 0

  let buckets h =
    locked h @@ fun () ->
    List.init
      (Array.length h.counts)
      (fun i ->
        ( (if i < Array.length h.bounds then h.bounds.(i) else infinity),
          h.counts.(i) ))

  let merge a b =
    if a.bounds <> b.bounds then Error "histogram merge: different buckets"
    else begin
      (* Snapshot each side under its own lock (never both at once — no
         lock-order hazard), then combine the snapshots. *)
      let snap h = locked h (fun () -> Array.copy h.counts, h.count, h.sum, h.max_v) in
      let ca, na, sa, ma = snap a in
      let cb, nb, sb, mb = snap b in
      let m = make (Array.to_list a.bounds) in
      Array.iteri (fun i c -> m.counts.(i) <- c + cb.(i)) ca;
      m.count <- na + nb;
      m.sum <- sa +. sb;
      m.max_v <- Float.max ma mb;
      Ok m
    end

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

let histogram ?(bounds = default_bounds) name =
  registered @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some (Histogram_m h) -> h
  | Some _ ->
      invalid_arg
        (Printf.sprintf "metric %s is already registered as another kind" name)
  | None ->
      let sorted = List.sort_uniq Float.compare bounds in
      if sorted <> bounds || bounds = [] then
        invalid_arg
          (Printf.sprintf "metric %s: bounds must be strictly increasing" name);
      let h = Histogram.make bounds in
      Hashtbl.replace registry name (Histogram_m h);
      h

let time h f =
  if not !on then f ()
  else begin
    let t0 = now_ns () in
    Fun.protect ~finally:(fun () -> Histogram.record h (now_ns () -. t0)) f
  end

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
