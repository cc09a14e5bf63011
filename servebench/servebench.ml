(* The serve-path benchmark.

   One executable, three roles:

   - the load generator (the default role) seeds a store from [--seed], starts
     [Penguin.Server.serve] in a child process, drives it from one
     thread over two [Penguin.Client] connections in a closed loop,
     checks every output, and prints the metrics — the last line of
     standard output is one JSON object;
   - [serve] is that child: the real serving event loop over the real
     filesystem ([Fsio.default], fsync included);
   - [follow] is the push follower of the [commit_quorum] workload:
     [Replica.follow_push] against the server's socket.

   Children are spawned with fork+exec of this same binary, so the
   server's heap, GC and resident set are its own. Each child's stdin is
   a pipe from the load generator: when the load generator exits by any path (including
   SIGKILL) the pipe closes and the child stops.

   [--trace 1] runs the workload on one server in alternating untraced
   and traced segments — traced ones record spans around every layer
   the benchmark can reach from outside the program (client calls, the
   server's socket and filesystem seams, the follower's push rounds,
   [(stats)] deltas) — and then replays the traced op stream in-process
   through
   Upql -> Session -> Engine -> Recovery.Appender -> cache sync, each
   call spanned. It prints per-layer metrics instead of end-to-end
   ones. See README.md in this directory for the workloads and the
   metric definitions. *)

open Relational

let now = Unix.gettimeofday

exception Failed of string

let fail fmt = Fmt.kstr (fun m -> raise (Failed m)) fmt

let or_fail what = function
  | Ok v -> v
  | Error e -> fail "%s: %s" what (Penguin.Error.to_string e)

let or_fail_s what = function Ok v -> v | Error m -> fail "%s: %s" what m
let say fmt = Fmt.pr ("servebench: " ^^ fmt ^^ "@.")

(* --- small numeric helpers ------------------------------------------------ *)

module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let sorted b =
    let a = Array.sub b.a 0 b.n in
    Array.sort compare a;
    a
end

(* Nearest-rank percentile of a sorted array. *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median l = pct (let a = Array.of_list l in Array.sort compare a; a) 0.5

let mean l =
  match l with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let ratio a b = if b = 0. then 0. else a /. b

(* --- files ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

let file_size path =
  match Unix.stat path with
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error _ -> 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- workloads ------------------------------------------------------------- *)

type workload = {
  name : string;
  courses : int;  (** bench courses added to the university fixture *)
  fanout : int;  (** grades (enrolled students) per bench course *)
  read_share : float;  (** share of ops that are [oql] point reads *)
  quorum : bool;  (** [sync_replicas = 1] with one push follower *)
  clients : int;  (** closed-loop client connections *)
  commit_tail : float;
      (** the commit-latency percentile reported as [commit_tail_ms] *)
  read_tail : float;  (** the read-latency percentile of [read_tail_ms] *)
}

(* The commit workloads carry 5% point reads, so every workload reports
   read latency under its own load (a read-back on an idle server would
   time the wake-up jitter of idle CPUs instead). A tail is p99 where a
   15 s run gives a thousand or more samples, else p90. *)
let workloads =
  [
    { name = "commit_small"; courses = 200; fanout = 4; read_share = 0.05;
      quorum = false; clients = 2; commit_tail = 0.99; read_tail = 0.9 };
    (* 500 courses, not 2000: on a 34k-tuple store the commit figures
       swung 35-50% with the host's slow phases, and four of six
       ten-seed sets spread beyond the 0.25 bound. *)
    { name = "commit_large"; courses = 500; fanout = 16; read_share = 0.05;
      quorum = false; clients = 2; commit_tail = 0.99; read_tail = 0.9 };
    (* 10% commits at ~250 ops/s: a few hundred commit samples a run.
       Runnable by name but left out of BENCHMARK.json: its scan-bound
       reads swing 30-45% with the host's slow phases, beyond any bound
       the benchmark may set. *)
    { name = "read_mostly"; courses = 2000; fanout = 16; read_share = 0.9;
      quorum = false; clients = 2; commit_tail = 0.9; read_tail = 0.99 };
    (* One connection: with two, a journal rotation releases the other
       connection's window, still waiting for its quorum, with an
       under-replicated ack — a failed op. *)
    { name = "commit_quorum"; courses = 200; fanout = 4; read_share = 0.05;
      quorum = true; clients = 1; commit_tail = 0.99; read_tail = 0.9 };
  ]

let object_name = "omega"
let course_id i = Fmt.str "C%05d" i
let student j = 5000 + j
let letters = [| "A"; "B"; "C"; "D" |]

(* The initial grade of course [i], slot [j] — drawn from the seed, so
   the store differs per seed like the op stream does. *)
let initial_grades w seed =
  let st = Random.State.make [| seed; 0x5701 |] in
  Array.init w.courses (fun _ ->
      Array.init w.fanout (fun _ -> letters.(Random.State.int st 4)))

(* The university fixture plus [courses] bench courses, each with
   [fanout] grades by [fanout] shared students. *)
let seed_workspace w grades =
  let ins rel bindings db =
    match Database.insert db rel (Tuple.make bindings) with
    | Ok db -> db
    | Error e -> fail "seeding %s: %s" rel (Database.error_to_string e)
  in
  let ws = Penguin.University.workspace () in
  let db = ref ws.Penguin.Workspace.db in
  for j = 0 to w.fanout - 1 do
    db :=
      !db
      |> ins "PEOPLE"
           [ "pid", Value.Int (student j); "name", Value.Str (Fmt.str "S%d" j);
             "dept_name", Value.Str "Computer Science" ]
      |> ins "STUDENT"
           [ "pid", Value.Int (student j); "degree_program", Value.Str "MS CS";
             "year", Value.Int ((j mod 4) + 1) ]
  done;
  for i = 0 to w.courses - 1 do
    db :=
      ins "COURSES"
        [ "course_id", Value.Str (course_id i);
          "title", Value.Str (Fmt.str "Bench %d" i); "units", Value.Int 3;
          "level", Value.Str "grad"; "dept_name", Value.Str "Computer Science" ]
        !db;
    for j = 0 to w.fanout - 1 do
      db :=
        ins "GRADES"
          [ "course_id", Value.Str (course_id i); "pid", Value.Int (student j);
            "grade", Value.Str grades.(i).(j) ]
          !db
    done
  done;
  { ws with Penguin.Workspace.db = !db }

(* --- the op stream ------------------------------------------------------------ *)

(* Of [n] connections, connection [c] owns the courses [i] with
   [i mod n = c]: the closed-loop streams never write the same tuple, so
   no commit is a window conflict and every op of a healthy run
   succeeds. Op ids are [n * k + c]; a write's grade value carries its
   op id, which makes every edit a real change and lets the server-side
   trace name it. *)
type op =
  | Read of { opid : int; course : int }
  | Write of { opid : int; course : int; slot : int; grade : string }

let write_stmt ~course ~slot ~grade =
  Fmt.str "set GRADES[pid = %d] grade = '%s' where course_id = '%s'"
    (student slot) grade (course_id course)

let read_query course = Fmt.str "course_id = '%s'" (course_id course)

type gen = { g_ix : int; g_rng : Random.State.t; mutable g_seq : int }

let make_gen seed ix =
  { g_ix = ix; g_rng = Random.State.make [| seed; 0x0b5; ix |]; g_seq = 0 }

let next_op w g =
  let n = w.clients in
  let opid = (n * g.g_seq) + g.g_ix in
  g.g_seq <- g.g_seq + 1;
  let course = (n * Random.State.int g.g_rng (w.courses / n)) + g.g_ix in
  if Random.State.float g.g_rng 1.0 < w.read_share then Read { opid; course }
  else
    let slot = Random.State.int g.g_rng w.fanout in
    Write { opid; course; slot; grade = Fmt.str "g%d" opid }

(* --- child processes ----------------------------------------------------------- *)

type child = { c_name : string; c_pid : int; c_pipe : Unix.file_descr;
               mutable c_done : bool }

let children : child list ref = ref []

let rec waitpid_eintr pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_eintr pid

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* run.sh pins the load generator to CPU 0 and sets SERVEBENCH_CHILD_CPU when the
   host has a second CPU and taskset: children then run on that CPU, so
   every request and response crosses the same two cores. *)
let child_cpu = Sys.getenv_opt "SERVEBENCH_CHILD_CPU"

let spawn name args =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let argv =
    match child_cpu with
    | Some cpu -> "taskset" :: "-c" :: cpu :: exe :: args
    | None -> exe :: args
  in
  let pid =
    Unix.create_process (List.hd argv) (Array.of_list argv) r Unix.stderr
      Unix.stderr
  in
  Unix.close r;
  let c = { c_name = name; c_pid = pid; c_pipe = w; c_done = false } in
  children := c :: !children;
  c

(* Wait for a child that is exiting by itself, then drop its pipe. *)
let await_exit c =
  if c.c_done then Unix.WEXITED 0
  else begin
    let status = waitpid_eintr c.c_pid in
    c.c_done <- true;
    close_quiet c.c_pipe;
    status
  end

(* Close the child's stdin — its stop signal — and wait for it. *)
let stop c =
  close_quiet c.c_pipe;
  await_exit c

let kill_and_reap c =
  if not c.c_done then begin
    (try Unix.kill c.c_pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (stop c : Unix.process_status)
  end

let exited c =
  (not c.c_done)
  &&
  match Unix.waitpid [ Unix.WNOHANG ] c.c_pid with
  | 0, _ -> false
  | _ ->
      c.c_done <- true;
      close_quiet c.c_pipe;
      true
  | exception Unix.Unix_error _ -> false

(* The trace segment a child is in. Each byte the load generator writes
   to the child's stdin starts the next segment; odd segments record
   events, even ones do not. *)
let segment = Atomic.make 0
let recording () = Atomic.get segment land 1 = 1

(* In a child: count segment bytes on stdin, and stop when the pipe
   reaches EOF — the load generator exited or asked us to stop. *)
let watch_stdin on_eof =
  ignore
    (Thread.create
       (fun () ->
         let b = Bytes.create 16 in
         let rec go () =
           match Unix.read Unix.stdin b 0 16 with
           | 0 -> on_eof ()
           | k ->
               ignore (Atomic.fetch_and_add segment k : int);
               go ()
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
           | exception Unix.Unix_error _ -> on_eof ()
         in
         go ())
       ()
      : Thread.t)

(* --- span sources inside the children ----------------------------------------- *)

(* Children record events as text lines in memory and write them out when
   they stop, each tagged with its segment:
     F <seg> <op> <journal?> <t0> <t1> <bytes>      one Fsio primitive
     N <seg> <send|recv> <fd> <t> <tag> <opid>      one socket send/recv *)
let events = Buffer.create (1 lsl 20)

let timed_fsio emit (d : Penguin.Fsio.t) : Penguin.Fsio.t =
  let wrap op path bytes f =
    if not (recording ()) then f ()
    else begin
      let t0 = now () in
      let r = f () in
      emit op (Filename.check_suffix path ".journal") t0 (now ()) bytes;
      r
    end
  in
  {
    Penguin.Fsio.read = (fun p -> wrap "read" p 0 (fun () -> d.read p));
    read_from =
      (fun ~path ~off ~len ->
        wrap "read" path 0 (fun () -> d.read_from ~path ~off ~len));
    write =
      (fun ~path ~append s ->
        wrap
          (if append then "append" else "write")
          path (String.length s)
          (fun () -> d.write ~path ~append s));
    sync = (fun p -> wrap "sync" p 0 (fun () -> d.sync p));
    rename =
      (fun ~src ~dst -> wrap "rename" dst 0 (fun () -> d.rename ~src ~dst));
    remove = (fun p -> wrap "remove" p 0 (fun () -> d.remove p));
  }

let emit_fsio op journal t0 t1 bytes =
  Printf.bprintf events "F %d %s %d %.6f %.6f %d\n" (Atomic.get segment) op
    (if journal then 1 else 0)
    t0 t1 bytes

let has_at s off p =
  let n = String.length p in
  let rec eq i = i = n || (s.[off + i] = p.[i] && eq (i + 1)) in
  off >= 0 && off + n <= String.length s && eq 0

let find_from s off p =
  let last = String.length s - String.length p in
  let rec go i =
    if i > last then None else if has_at s i p then Some i else go (i + 1)
  in
  go off

(* The request or response a frame carries (payload after the 8-byte
   length+CRC header), and for a [(queue)] the op id in its grade. Long
   requests are rendered over several lines, so a tag is matched without
   the separator after it. *)
let frame_tag s =
  let tags =
    [ "(begin)", "begin"; "(queue", "queue"; "(commit)", "commit";
      "(oql", "oql"; "(ping)", "ping"; "(ack", "ack"; "(stats)", "stats";
      "(ok (begun", "begin"; "(ok (queued", "queue";
      "(ok (committed", "commit"; "(ok (instances", "oql"; "(ok pong", "ping";
      "(error", "error" ]
  in
  match List.find_opt (fun (p, _) -> has_at s 8 p) tags with
  | None -> "other", -1
  | Some (_, "queue") when has_at s 8 "(queue" -> (
      match find_from s 8 "'g" with
      | None -> "queue", -1
      | Some i ->
          let j = ref (i + 2) in
          while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do
            incr j
          done;
          "queue", Option.value ~default:(-1)
                     (int_of_string_opt (String.sub s (i + 2) (!j - i - 2))))
  | Some (_, t) -> t, -1

let traced_net (d : Penguin.Netio.net) : Penguin.Netio.net =
  let ids = Hashtbl.create 16 in
  let fid fd =
    match Hashtbl.find_opt ids fd with
    | Some i -> i
    | None ->
        let i = Hashtbl.length ids in
        Hashtbl.add ids fd i;
        i
  in
  let emit dir fd t s =
    let tag, opid = frame_tag s in
    Printf.bprintf events "N %d %s %d %.6f %s %d\n" (Atomic.get segment) dir
      (fid fd) t tag opid
  in
  {
    Penguin.Netio.net_send =
      (fun fd s ->
        if recording () then
          emit "send" fd (now ()) (String.sub s 0 (min 200 (String.length s)));
        d.net_send fd s);
    net_recv =
      (fun fd buf ->
        let k = d.net_recv fd buf in
        if k > 0 && recording () then
          emit "recv" fd (now ()) (Bytes.sub_string buf 0 (min k 200));
        k);
  }

let dump_events path =
  if path <> "" then
    Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc events)

(* --- the [serve] child -------------------------------------------------------- *)

let serve_main ~store ~sock ~quorum ~events_path =
  watch_stdin (fun () -> Unix._exit 3);
  let traced = events_path <> "" in
  let io =
    if traced then timed_fsio emit_fsio Penguin.Fsio.default
    else Penguin.Fsio.default
  in
  let net =
    if traced then traced_net Penguin.Netio.default_net
    else Penguin.Netio.default_net
  in
  (* The quorum wait gets 1 s instead of the default 50 ms: after a
     rotation the follower resubscribes through the pull feed, which on a
     busy host can take longer than 50 ms, and the expired window would
     be acked under-replicated — a failed op that says nothing about the
     code under test. *)
  let config =
    if quorum then
      { Penguin.Server.default_config with
        Penguin.Server.sync_replicas = 1; repl_deadline_ns = 1e9 }
    else Penguin.Server.default_config
  in
  match Penguin.Server.serve ~io ~net ~config ~store ~sock () with
  | Ok _ ->
      dump_events events_path;
      exit 0
  | Error e ->
      Fmt.epr "servebench serve: %s@." (Penguin.Error.to_string e);
      exit 1

(* --- the [follow] child -------------------------------------------------------- *)

(* Tail the server through the pull feed until idle, then follow its
   push stream with [Replica.follow_push]: a dropped stream (a journal
   rotation closes every subscription) falls back to the pull feed and
   resubscribes. The push rounds are traced through [net]. *)
let follow_main ~sock ~target ~events_path =
  let stop = Atomic.make false in
  watch_stdin (fun () -> Atomic.set stop true);
  let traced = events_path <> "" in
  let io =
    if traced then timed_fsio emit_fsio Penguin.Fsio.default
    else Penguin.Fsio.default
  in
  let net =
    if traced then traced_net Penguin.Netio.default_net
    else Penguin.Netio.default_net
  in
  let code =
    try
      let r =
        or_fail "follower create"
          (Penguin.Replica.create ~io ~feed:(Penguin.Shipper.feed ~sock)
             ~target ())
      in
      ignore
        (or_fail "follower catch-up" (Penguin.Replica.poll_until_idle r)
          : Penguin.Replica.progress);
      ignore
        (or_fail "follower"
           (Penguin.Replica.follow_push ~net
              ~should_stop:(fun _ -> Atomic.get stop)
              r ~sock)
          : int);
      0
    with Failed m ->
      Fmt.epr "servebench follow: %s@." m;
      1
  in
  dump_events events_path;
  exit code

(* --- load generator: spans ------------------------------------------------------------- *)

type span = {
  name : string;
  op : int;  (** op id shared by every span of one request; -1 if none *)
  t0 : float;
  t1 : float;
  mutable parent : int;  (** index in the span table; -1 = root *)
}

let spans : span list ref = ref []
let tracing = ref false

let record name op t0 t1 =
  if !tracing then spans := { name; op; t0; t1; parent = -1 } :: !spans

let timed name op f =
  if !tracing then begin
    let t0 = now () in
    let r = f () in
    record name op t0 (now ());
    r
  end
  else f ()

(* --- load generator: one server lifetime --------------------------------------------- *)

type conn = { cl : Penguin.Client.t; gen : gen }

type server = {
  dir : string;
  store : string;
  sock : string;
  srv : child;
  fol : child option;
  target : string;
  conns : conn array;
  events_path : string;
  tuples : int;  (** tuples in the seeded store *)
}

(* The expected durable state: (course, slot) -> (version, grade), the
   newest acked write of each key (reads check against it too). *)
type expect = {
  init : string array array;
  last : (int * int, int * string) Hashtbl.t;
}

let expected e course slot =
  match Hashtbl.find_opt e.last (course, slot) with
  | Some (_, g) -> g
  | None -> e.init.(course).(slot)

let note_write e course slot version grade =
  match Hashtbl.find_opt e.last (course, slot) with
  | Some (v, _) when v > version -> ()
  | _ -> Hashtbl.replace e.last (course, slot) (version, grade)

let problems : string list ref = ref []

let problem fmt =
  Fmt.kstr
    (fun m ->
      if List.length !problems < 20 then problems := m :: !problems)
    fmt

let count_sub s p =
  let rec go i n =
    match find_from s i p with None -> n | Some j -> go (j + 1) (n + 1)
  in
  go 0 0

(* A read must return exactly the course asked for, with one GRADES
   sub-instance per enrolled student, each holding the newest acked
   grade (connection [c] only reads courses it alone writes). *)
let check_read w e course (n, text) =
  if n <> 1 then problem "read of %s returned %d instances" (course_id course) n
  else if find_from text 0 ("course_id=" ^ course_id course ^ ",") = None then
    problem "read of %s returned another course" (course_id course)
  else begin
    let grades = count_sub text "(GRADES: " in
    if grades <> w.fanout then
      problem "read of %s: %d grades, expected %d" (course_id course) grades
        w.fanout;
    for j = 0 to w.fanout - 1 do
      let g = expected e course j in
      if
        find_from text 0 (Fmt.str "(GRADES: grade=%s, pid=%d\n" g (student j))
        = None
      then problem "read of %s: slot %d does not hold %s" (course_id course) j g
    done
  end

let wait_until ~what ~timeout child pred =
  let deadline = now () +. timeout in
  let rec go () =
    if pred () then ()
    else if exited child then fail "%s: %s exited" what child.c_name
    else if now () > deadline then fail "%s: timed out" what
    else (Unix.sleepf 0.002; go ())
  in
  go ()

let rec connect ~sock n =
  match Penguin.Client.connect ~sock with
  | Ok c -> c
  | Error e ->
      if n = 0 then fail "connect %s: %s" sock (Penguin.Error.to_string e)
      else (Unix.sleepf 0.005; connect ~sock (n - 1))

let stats_json c =
  or_fail_s "stats json"
    (Obs.Json.parse (or_fail "stats" (Penguin.Client.stats c)))

let counter j name =
  match Option.bind (Obs.Json.member "counters" j) (Obs.Json.member name) with
  | Some v -> Option.value ~default:0. (Obs.Json.to_float v)
  | None -> 0.

let gauge j name =
  match Option.bind (Obs.Json.member "gauges" j) (Obs.Json.member name) with
  | Some v -> Option.value ~default:0. (Obs.Json.to_float v)
  | None -> 0.

let hist j name field =
  match
    Option.bind
      (Option.bind (Obs.Json.member "histograms" j) (Obs.Json.member name))
      (Obs.Json.member field)
  with
  | Some v -> Option.value ~default:0. (Obs.Json.to_float v)
  | None -> 0.

(* sun_path is 108 bytes on Linux; socket paths are kept relative to the
   run directory (the load generator's working directory), so they stay short
   however deep the checkout is. *)
let sun_path_max = 107

let start_server w ~seed ~rundir ~name ~traced ~grades =
  let dir = Filename.concat rundir name in
  mkdir_p dir;
  let store = Filename.concat dir "store.pgn" in
  let sock = Filename.concat dir "sock" in
  if String.length sock > sun_path_max then
    fail "socket path %S exceeds the %d-byte sun_path limit" sock sun_path_max;
  let ws = seed_workspace w grades in
  or_fail "seed store" (Penguin.Store.save_file ws store);
  let events_path = if traced then Filename.concat dir "server.events" else "" in
  let srv =
    spawn "server"
      ([ "serve"; "--store"; store; "--sock"; sock ]
      @ (if w.quorum then [ "--quorum" ] else [])
      @ if traced then [ "--events"; events_path ] else [])
  in
  wait_until ~what:"server start" ~timeout:120. srv (fun () ->
      Sys.file_exists sock);
  let probe = connect ~sock 200 in
  let target = Filename.concat dir "follower.pgn" in
  let fol =
    if not w.quorum then None
    else begin
      let f =
        spawn "follower"
          ([ "follow"; "--sock"; sock; "--target"; target ]
          @
          if traced then [ "--events"; Filename.concat dir "follower.events" ]
          else [])
      in
      wait_until ~what:"follower subscribe" ~timeout:120. f (fun () ->
          gauge (stats_json probe) "server.replication.followers" >= 1.);
      Some f
    end
  in
  let conns =
    Array.init w.clients (fun i ->
        let cl = if i = 0 then probe else connect ~sock 200 in
        { cl; gen = make_gen seed i })
  in
  { dir; store; sock; srv; fol; target; conns; events_path;
    tuples = Database.total_tuples ws.Penguin.Workspace.db }

let vm_hwm_mb pid =
  match read_file (Fmt.str "/proc/%d/status" pid) with
  | exception Sys_error _ -> nan
  | s -> (
      match find_from s 0 "VmHWM:" with
      | None -> nan
      | Some i ->
          let j = String.index_from s i '\n' in
          let field = String.trim (String.sub s (i + 6) (j - i - 6)) in
          let kb = List.hd (String.split_on_char ' ' field) in
          float_of_string kb /. 1024.)

(* Stop the follower first (a server gone mid-round would fail its pull
   feed), then the server, which flushes and exits by itself. *)
let shutdown_server s =
  Option.iter
    (fun f ->
      match stop f with
      | Unix.WEXITED 0 -> ()
      | _ -> fail "follower child did not exit cleanly")
    s.fol;
  (match Penguin.Client.shutdown s.conns.(0).cl with
  | Ok () -> ()
  | Error e -> fail "shutdown: %s" (Penguin.Error.to_string e));
  Array.iter (fun c -> Penguin.Client.close c.cl) s.conns;
  match await_exit s.srv with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "server child did not exit cleanly"

(* Set-up, as a user pays it: seed and write the store, start the server
   (and the follower), connect, and serve the first read — which builds
   the server's view-object cache — and the first commit. *)
let setup w ~seed ~rundir ~name ~traced e =
  let t0 = now () in
  let s = start_server w ~seed ~rundir ~name ~traced ~grades:e.init in
  let cl = s.conns.(0).cl in
  check_read w e 0
    (or_fail "first read" (Penguin.Client.oql cl ~object_name (read_query 0)));
  let grade = "s" ^ name in
  ignore (or_fail "begin" (Penguin.Client.begin_ cl) : int);
  ignore
    (or_fail "queue"
       (Penguin.Client.queue cl ~object_name
          (write_stmt ~course:0 ~slot:0 ~grade))
      : int);
  (match or_fail "first commit" (Penguin.Client.commit cl) with
  | [ v ] -> note_write e 0 0 v grade
  | vs -> problem "set-up commit acked %d versions" (List.length vs));
  s, now () -. t0

(* --- load generator: bytes written, seen from the files ------------------------------ *)

(* Journal and snapshot bytes, sampled from file sizes after every commit
   ack. A shrinking journal is a rotation: the snapshot was rewritten
   (its size counts) and the journal restarted (its new size counts);
   the record appended just before the rotation is never seen on disk
   and is counted as the mean record seen so far. *)
type disk = {
  jpath : string;
  spath : string;
  mutable last_j : int;
  mutable bytes : int;
  mutable grow_bytes : int;
  mutable grows : int;
  mutable rotations : int;
  mutable commits : int;
  mutable first_rot : (int * int) option;
      (** bytes and commits counted at the first rotation *)
  mutable last_rot : (int * int) option;  (** ... and at the latest *)
}

let disk_create s =
  let jpath = s.store ^ ".journal" in
  { jpath; spath = s.store; last_j = file_size jpath; bytes = 0;
    grow_bytes = 0; grows = 0; rotations = 0; commits = 0; first_rot = None;
    last_rot = None }

let disk_sample d =
  d.commits <- d.commits + 1;
  let j = file_size d.jpath in
  if j > d.last_j then begin
    d.bytes <- d.bytes + j - d.last_j;
    d.grow_bytes <- d.grow_bytes + j - d.last_j;
    d.grows <- d.grows + 1
  end
  else if j < d.last_j then begin
    let missed = if d.grows = 0 then 0 else d.grow_bytes / d.grows in
    d.bytes <- d.bytes + file_size d.spath + j + missed;
    d.rotations <- d.rotations + 1;
    if d.first_rot = None then d.first_rot <- Some (d.bytes, d.commits);
    d.last_rot <- Some (d.bytes, d.commits)
  end;
  d.last_j <- j

(* Over whole rotation cycles — first rotation to last — when the run saw
   two or more: a cycle's bytes (its journal records and one snapshot)
   over its commits, free of where the run happened to start and stop. *)
let bytes_per_commit d =
  match d.first_rot, d.last_rot with
  | Some (b0, c0), Some (b1, c1) when c1 > c0 ->
      float_of_int (b1 - b0) /. float_of_int (c1 - c0)
  | _ -> float_of_int d.bytes /. float_of_int (max 1 d.commits)

(* --- load generator: the closed loop ------------------------------------------------- *)

type tally = {
  commit_lat : Fbuf.t;  (** seconds, begin sent -> commit acked *)
  read_lat : Fbuf.t;  (** seconds, one oql round trip *)
  mutable attempted : int;
  mutable failed : int;
  mutable completed : int;
  mutable commits : int;
  mutable versions : int list;
  mutable log : op list;  (** completed ops, newest first; traced runs only *)
}

let new_tally () =
  { commit_lat = Fbuf.create (); read_lat = Fbuf.create (); attempted = 0;
    failed = 0; completed = 0; commits = 0; versions = []; log = [] }

let op_failed t what e =
  t.failed <- t.failed + 1;
  if t.failed <= 5 then
    Fmt.epr "servebench: %s failed: %s@." what (Penguin.Error.to_string e)

let send_or_fail what = function
  | Ok () -> ()
  | Error e -> fail "%s: %s" what (Penguin.Error.to_string e)

(* [w.clients] connections, one thread, zero think time. The load generator keeps a FIFO
   of the connections' next steps and always serves the oldest: receive
   the response to the request a connection has in flight, or send its
   next op. A commit is three exchanges (begin, queue, commit) whose
   requests are sent as soon as the previous response arrives; a read
   is one blocking [oql], taken in FIFO turn, during which the other
   connection's in-flight request waits in its socket. *)
let run_load w s e t ~seconds ~disk =
  let t_end = now () +. seconds in
  let q = Queue.create () in
  let cur = Array.make w.clients None in
  let stage = Array.make w.clients 0 in
  let next i =
    if now () < t_end then begin
      let c = s.conns.(i) in
      t.attempted <- t.attempted + 1;
      (match next_op w c.gen with
      | Read _ as op ->
          cur.(i) <- Some (op, 0.);
          stage.(i) <- 0
      | Write _ as op ->
          cur.(i) <- Some (op, now ());
          send_or_fail "send begin" (Penguin.Client.send_begin c.cl);
          stage.(i) <- 1);
      Queue.push i q
    end
  in
  for i = 0 to w.clients - 1 do
    next i
  done;
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    let c = s.conns.(i) in
    match cur.(i) with
    | Some ((Read { opid; course } as op), _) -> (
        let t0 = now () in
        match Penguin.Client.oql c.cl ~object_name (read_query course) with
        | Ok r ->
            let t1 = now () in
            record "client.oql" opid t0 t1;
            Fbuf.push t.read_lat (t1 -. t0);
            t.completed <- t.completed + 1;
            if !tracing then t.log <- op :: t.log;
            check_read w e course r;
            next i
        | Error err ->
            op_failed t "read" err;
            next i)
    | Some ((Write { opid; course; slot; grade } as op), t0) -> (
        match stage.(i) with
        | 1 -> (
            match Penguin.Client.recv_begin c.cl with
            | Ok _ ->
                send_or_fail "send queue"
                  (Penguin.Client.send_queue c.cl ~object_name
                     (write_stmt ~course ~slot ~grade));
                stage.(i) <- 2;
                Queue.push i q
            | Error err ->
                op_failed t "begin" err;
                next i)
        | 2 -> (
            match Penguin.Client.recv_queue c.cl with
            | Ok _ ->
                send_or_fail "send commit" (Penguin.Client.send_commit c.cl);
                stage.(i) <- 3;
                Queue.push i q
            | Error err ->
                op_failed t "queue" err;
                next i)
        | _ -> (
            match Penguin.Client.recv_commit_ack c.cl with
            | Ok ack ->
                let t1 = now () in
                record "client.commit" opid t0 t1;
                Fbuf.push t.commit_lat (t1 -. t0);
                disk_sample disk;
                (* An under-replicated ack is durable here but missed the
                   quorum: it counts as failed. *)
                if ack.Penguin.Client.under_replicated then
                  op_failed t "commit"
                    (Penguin.Error.deadline_exceeded "acked under-replicated");
                (match ack.versions with
                | [ v ] -> note_write e course slot v grade
                | vs ->
                    problem "commit %d acked %d versions" opid (List.length vs));
                t.versions <- ack.versions @ t.versions;
                t.commits <- t.commits + 1;
                t.completed <- t.completed + 1;
                if !tracing then t.log <- op :: t.log;
                next i
            | Error err ->
                op_failed t "commit" err;
                next i))
    | None -> fail "connection %d has no op in flight" i
  done

(* Every version in (v0, v1] must be acked exactly once. *)
let check_versions v0 v1 versions =
  let sorted = List.sort compare versions in
  let rec dups = function
    | a :: (b :: _ as rest) -> (if a = b then 1 else 0) + dups rest
    | _ -> 0
  in
  let d = dups sorted in
  let out = List.length (List.filter (fun v -> v <= v0 || v > v1) sorted) in
  let distinct = List.length (List.sort_uniq compare sorted) in
  if d > 0 then problem "%d versions acked twice" d;
  if out > 0 then problem "%d acked versions outside (%d, %d]" out v0 v1;
  if distinct - out <> v1 - v0 then
    problem "%d of the %d versions in (%d, %d] were never acked"
      (v1 - v0 - (distinct - out))
      (v1 - v0) v0 v1

(* After shutdown the store reopens through crash recovery at exactly the
   last acked version, holding the last acked grade of every key. *)
let verify_store s e ~version =
  let ws, _ = or_fail "reopen store" (Penguin.Recovery.open_store s.store) in
  if Penguin.Workspace.version ws <> version then
    problem "store reopened at v%d, last ack was v%d"
      (Penguin.Workspace.version ws) version;
  let grades = Hashtbl.create 65536 in
  Relation.iter
    (fun tu ->
      Hashtbl.replace grades
        (Tuple.get tu "course_id", Tuple.get tu "pid")
        (Tuple.get tu "grade"))
    (Database.relation_exn ws.Penguin.Workspace.db "GRADES");
  Hashtbl.iter
    (fun (course, slot) (_, g) ->
      match
        Hashtbl.find_opt grades
          (Value.Str (course_id course), Value.Int (student slot))
      with
      | Some (Value.Str g') when g' = g -> ()
      | _ ->
          problem "after reopen, %s slot %d does not hold %s"
            (course_id course) slot g)
    e.last

(* One stretch of the closed loop, traced or not. *)
type segment = { traced : bool; seg_s : float; seg_ops : int; seg_commits : int }

type measured = {
  tally : tally;
  read_lat : float array;  (** sorted seconds *)
  commit_lat : float array;
  elapsed : float;
  disk : disk;
  rss_mb : float;
  pings : float list;
  st0 : Obs.Json.t;
  st1 : Obs.Json.t;
  segs : segment list;
}

(* Start the next trace segment: in the load generator, and in each child
   by one byte on its stdin pipe. *)
let toggle_trace s =
  tracing := not !tracing;
  List.iter
    (fun c ->
      try ignore (Unix.write_substring c.c_pipe "t" 0 1 : int)
      with Unix.Unix_error _ -> ())
    (s.srv :: Option.to_list s.fol)

(* Drive one server lifetime (already set up) to the end: the closed loop
   in [segments] of (seconds, traced), every check, shutdown, and the
   reopen check. Nothing is in flight between segments. *)
let measure w s e ~segments =
  let c0 = s.conns.(0).cl in
  let traced = List.exists snd segments in
  let pings =
    if not traced then []
    else
      List.init 300 (fun _ ->
          let t0 = now () in
          or_fail "ping" (Penguin.Client.ping c0);
          now () -. t0)
  in
  let st0 = if traced then stats_json c0 else Obs.Json.Null in
  let v0 = or_fail "probe begin" (Penguin.Client.begin_ c0) in
  let disk = disk_create s in
  let t = new_tally () in
  let segs =
    List.map
      (fun (seconds, on) ->
        if on <> !tracing then toggle_trace s;
        let ops0 = t.completed and commits0 = t.commits and ts = now () in
        run_load w s e t ~seconds ~disk;
        { traced = on; seg_s = now () -. ts; seg_ops = t.completed - ops0;
          seg_commits = t.commits - commits0 })
      segments
  in
  if !tracing then toggle_trace s;
  let elapsed = List.fold_left (fun a g -> a +. g.seg_s) 0. segs in
  (* The follower catches up (after a rotation, through the pull feed)
     before the final checks. *)
  let v1 = or_fail "probe begin" (Penguin.Client.begin_ c0) in
  Option.iter
    (fun f ->
      wait_until ~what:"follower catch-up" ~timeout:60. f (fun () ->
          match Penguin.Replica.durable_position s.target with
          | Ok d -> d.Penguin.Replica.d_version >= v1
          | Error _ -> false))
    s.fol;
  check_versions v0 v1 t.versions;
  let st1 = if traced then stats_json c0 else Obs.Json.Null in
  let rss_mb = vm_hwm_mb s.srv.c_pid in
  let t_sd = now () in
  shutdown_server s;
  let t_sd1 = now () in
  (match s.fol with
  | None -> ()
  | Some _ -> (
      match Penguin.Replica.durable_position s.target with
      | Ok d when d.Penguin.Replica.d_version = v1 -> ()
      | Ok d ->
          problem "follower ended at v%d, leader at v%d" d.d_version v1
      | Error err ->
          problem "follower store: %s" (Penguin.Error.to_string err)));
  verify_store s e ~version:v1;
  say "  phases: loop %.1f s, shutdown %.1f s, reopen check %.1f s" elapsed
    (t_sd1 -. t_sd) (now () -. t_sd1);
  { tally = t; read_lat = Fbuf.sorted t.read_lat;
    commit_lat = Fbuf.sorted t.commit_lat; elapsed; disk; rss_mb; pings; st0;
    st1; segs }

(* --- load generator: end-to-end run ------------------------------------------------- *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let fresh_expect init = { init; last = Hashtbl.create 4096 }

let describe (w : workload) ~seed (s : server) =
  say "workload %s: seed %d, store %d tuples (%d courses x %d grades + fixture)"
    w.name seed s.tuples w.courses w.fanout;
  say
    "  load: closed loop, %d connections, one load-generator thread, zero think \
     time; %.0f%% oql point reads / %.0f%% single-grade commits"
    w.clients (100. *. w.read_share)
    (100. *. (1. -. w.read_share));
  say
    "  flush policy: Fsio.default (real fsync), Server.default_config \
     (window 64, eager flush%s), journal rotation every 64 records"
    (if w.quorum then ", sync_replicas 1 with one push follower" else "")

let samples_note name a p =
  let n = Array.length a in
  let beyond = n - int_of_float (ceil (p *. float_of_int n)) in
  say "  %s: %d samples, p25/p50/p75 %.3f/%.3f/%.3f ms, tail = p%.0f (%d beyond it)%s"
    name n (pct a 0.25 *. 1e3) (pct a 0.5 *. 1e3) (pct a 0.75 *. 1e3)
    (100. *. p) beyond
    (if beyond < 10 then " — fewer than 10 beyond the tail percentile" else "")

let run_plain w ~seed ~seconds ~setups ~rundir =
  let init = initial_grades w seed in
  let rec go k times =
    let e = fresh_expect init in
    let s, dt =
      setup w ~seed ~rundir ~name:(Fmt.str "s%d" k) ~traced:false e
    in
    if k < setups then begin
      shutdown_server s;
      rm_rf s.dir;
      go (k + 1) (dt :: times)
    end
    else s, e, dt :: times
  in
  let s, e, setup_times = go 1 [] in
  describe w ~seed s;
  let m = measure w s e ~segments:[ seconds, false ] in
  rm_rf s.dir;
  let t = m.tally in
  let ms a p = pct a p *. 1e3 in
  samples_note "commit latency" m.commit_lat w.commit_tail;
  samples_note "read latency" m.read_lat w.read_tail;
  say "  setup: %d set-ups, median of %s s" setups
    (String.concat ", " (List.rev_map (Fmt.str "%.3f") setup_times));
  say "  journal rotations seen on disk: %d; commits: %d" m.disk.rotations
    t.commits;
  {
    correct = !problems = [] && t.failed = 0;
    attempted = t.attempted;
    failed = t.failed;
    metrics =
      [
        "setup_s", median setup_times, "s";
        "ops_per_s", float_of_int t.completed /. m.elapsed, "1/s";
        "commit_p50_ms", ms m.commit_lat 0.5, "ms";
        "commit_tail_ms", ms m.commit_lat w.commit_tail, "ms";
        "read_p50_ms", ms m.read_lat 0.5, "ms";
        "read_tail_ms", ms m.read_lat w.read_tail, "ms";
        "write_bytes_per_commit", bytes_per_commit m.disk, "B";
        "server_rss_mb", m.rss_mb, "MB";
      ];
  }

(* --- load generator: the traced run --------------------------------------------------- *)

type fev = { f_op : string; f_j : bool; f_t0 : float; f_t1 : float; f_bytes : int }
type nev = { n_send : bool; n_fd : int; n_t : float; n_tag : string; n_op : int }

type ev = Fev of fev | Nev of nev

(* A child's events, one (Fsio, socket) pair of lists per traced segment,
   each oldest first. Requests and responses are paired only within a
   segment. *)
let parse_events path =
  if path = "" || not (Sys.file_exists path) then []
  else
    let evs =
      List.filter_map
        (fun line ->
          match String.split_on_char ' ' line with
          | [ "F"; seg; op; j; t0; t1; b ] ->
              Some
                ( int_of_string seg,
                  Fev
                    { f_op = op; f_j = j = "1"; f_t0 = float_of_string t0;
                      f_t1 = float_of_string t1; f_bytes = int_of_string b } )
          | [ "N"; seg; dir; fd; t; tag; op ] ->
              Some
                ( int_of_string seg,
                  Nev
                    { n_send = dir = "send"; n_fd = int_of_string fd;
                      n_t = float_of_string t; n_tag = tag;
                      n_op = int_of_string op } )
          | _ -> None)
        (String.split_on_char '\n' (read_file path))
    in
    List.map
      (fun seg ->
        let mine = List.filter (fun (s, _) -> s = seg) evs in
        ( List.filter_map (function _, Fev f -> Some f | _ -> None) mine,
          List.filter_map (function _, Nev n -> Some n | _ -> None) mine ))
      (List.sort_uniq compare (List.map fst evs))

(* Server residence of each request: its frame's arrival paired with the
   next response sent on the same connection. A begin belongs to the op
   of the queue after it, a commit to the op of the queue before it. *)
let residences ns =
  let pending = Hashtbl.create 8 and per_fd = Hashtbl.create 8 in
  List.iter
    (fun n ->
      if n.n_send then (
        match Hashtbl.find_opt pending n.n_fd with
        | Some (tag, op, t) ->
            Hashtbl.remove pending n.n_fd;
            let l = Option.value ~default:[] (Hashtbl.find_opt per_fd n.n_fd) in
            Hashtbl.replace per_fd n.n_fd ((tag, op, t, n.n_t) :: l)
        | None -> ())
      else if n.n_tag <> "ack" && n.n_tag <> "other" then
        Hashtbl.replace pending n.n_fd (n.n_tag, n.n_op, n.n_t))
    ns;
  Hashtbl.fold
    (fun _ l acc ->
      let a = Array.of_list (List.rev l) in
      let op_at k = match a.(k) with _, op, _, _ -> op in
      let tag_at k = match a.(k) with tag, _, _, _ -> tag in
      Array.to_list
        (Array.mapi
           (fun k (tag, op, r0, r1) ->
             let op =
               if tag = "begin" && k + 1 < Array.length a && tag_at (k + 1) = "queue"
               then op_at (k + 1)
               else if tag = "commit" && k > 0 && tag_at (k - 1) = "queue" then
                 op_at (k - 1)
               else op
             in
             { name = "server." ^ tag; op; t0 = r0; t1 = r1; parent = -1 })
           a)
      @ acc)
    per_fd []

(* Rotations in the server's filesystem trace: a run of snapshot and
   journal-reset writes, renames and syncs, timed from the end of the
   journal fsync that preceded it (the append that triggered it; the
   snapshot is serialized in between). *)
let rotation_spans fs =
  let out = ref [] and last_sync = ref 0. and cur = ref None in
  let close () =
    Option.iter (fun (a, b) -> out := (a, b) :: !out) !cur;
    cur := None
  in
  List.iter
    (fun f ->
      if f.f_op = "sync" && f.f_j then (close (); last_sync := f.f_t1)
      else if f.f_op = "append" || f.f_op = "read" then close ()
      else
        cur :=
          Some
            (match !cur with
            | None -> (if !last_sync > 0. then !last_sync else f.f_t0), f.f_t1
            | Some (a, _) -> a, f.f_t1))
    fs;
  close ();
  List.rev !out

(* The follower's push rounds: first stream bytes received after the
   previous ack, to the ack of the new durable position. *)
let push_rounds ns =
  let first = ref None in
  List.filter_map
    (fun n ->
      if not n.n_send then begin
        if !first = None then first := Some n.n_t;
        None
      end
      else
        let r =
          match !first with
          | Some t0 when n.n_tag = "ack" -> Some (t0, n.n_t)
          | _ -> None
        in
        first := None;
        r)
    ns

(* Time a window's journal fsync waited for the follower's ack of it. *)
let quorum_waits fs ns =
  let acks =
    Array.of_list
      (List.filter_map
         (fun n -> if (not n.n_send) && n.n_tag = "ack" then Some n.n_t else None)
         ns)
  in
  let k = ref 0 in
  List.filter_map
    (fun f ->
      if f.f_op = "sync" && f.f_j then begin
        while !k < Array.length acks && acks.(!k) < f.f_t1 do
          incr k
        done;
        if !k < Array.length acks && acks.(!k) -. f.f_t1 < 1. then
          Some (acks.(!k) -. f.f_t1)
        else None
      end
      else None)
    fs

let cover (t0, t1) ivs =
  let ivs =
    List.sort compare
      (List.filter_map
         (fun (a, b) ->
           let a = Float.max a t0 and b = Float.min b t1 in
           if b > a then Some (a, b) else None)
         ivs)
  in
  let rec go acc a b = function
    | [] -> acc +. (b -. a)
    | (a', b') :: rest ->
        if a' > b then go (acc +. (b -. a)) a' b' rest
        else go acc a (Float.max b b') rest
  in
  match ivs with [] -> 0. | (a, b) :: rest -> go 0. a b rest

(* Nest [children] under the first of [parents] that contains each;
   both arrays hold indexes into [tbl], sorted by start. *)
let nest tbl ~parents ~children =
  let p = ref 0 in
  Array.iter
    (fun ci ->
      let c = tbl.(ci) in
      while !p < Array.length parents && tbl.(parents.(!p)).t1 < c.t0 do
        incr p
      done;
      let rec find k =
        if k < Array.length parents && k < !p + 64 then
          let pa = tbl.(parents.(k)) in
          if pa.t0 <= c.t0 && c.t1 <= pa.t1 && parents.(k) <> ci then
            c.parent <- parents.(k)
          else find (k + 1)
      in
      if c.parent < 0 then find !p)
    children

(* Assemble the span table, nest it, write it out, and return per-name
   (count, mean duration, mean self time) in seconds. *)
let span_table ~out_path all =
  let tbl = Array.of_list all in
  Array.sort (fun a b -> compare a.t0 b.t0) tbl;
  let idx pred =
    Array.of_list
      (List.filter (fun i -> pred tbl.(i)) (List.init (Array.length tbl) Fun.id))
  in
  let layer s = List.hd (String.split_on_char '.' s.name) in
  let served s = List.mem (layer s) [ "fsio"; "recovery"; "replica" ] in
  (* Served requests sit under the client call with their op id, or —
     reads, which carry none — under the one call in flight. *)
  let by_op = Hashtbl.create 4096 in
  Array.iteri
    (fun i s -> if layer s = "client" && s.op >= 0 then Hashtbl.replace by_op s.op i)
    tbl;
  Array.iter
    (fun s ->
      if layer s = "server" && s.op >= 0 then
        Option.iter (fun i -> s.parent <- i) (Hashtbl.find_opt by_op s.op))
    tbl;
  nest tbl ~parents:(idx (fun s -> layer s = "client"))
    ~children:(idx (fun s -> layer s = "server" && s.parent < 0));
  (* The served-side layers: rotation writes under their rotation, and
     fsio, rotation and follower rounds under the commit they block. *)
  nest tbl ~parents:(idx (fun s -> s.name = "recovery.rotate"))
    ~children:(idx (fun s ->
        layer s = "fsio" && s.name <> "fsio.append" && s.name <> "fsio.sync"));
  nest tbl ~parents:(idx (fun s -> s.name = "server.commit"))
    ~children:(idx (fun s -> served s && s.parent < 0));
  (* The replay's calls under their replayed op. *)
  nest tbl ~parents:(idx (fun s -> layer s = "replay"))
    ~children:(idx (fun s ->
        not (List.mem (layer s) [ "replay"; "client"; "server" ] || served s)));
  let kids = Array.make (Array.length tbl) [] in
  Array.iter
    (fun s -> if s.parent >= 0 then kids.(s.parent) <- (s.t0, s.t1) :: kids.(s.parent))
    tbl;
  let base = if Array.length tbl > 0 then tbl.(0).t0 else 0. in
  let per = Hashtbl.create 32 in
  Out_channel.with_open_bin out_path (fun oc ->
      Printf.fprintf oc "id\tparent\top\tname\tstart_us\tdur_us\tself_us\n";
      Array.iteri
        (fun i s ->
          let dur = s.t1 -. s.t0 in
          let self = dur -. cover (s.t0, s.t1) kids.(i) in
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%.1f\t%.1f\t%.1f\n" i s.parent s.op
            s.name ((s.t0 -. base) *. 1e6) (dur *. 1e6) (self *. 1e6);
          let n, d, sf =
            Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt per s.name)
          in
          Hashtbl.replace per s.name (n + 1, d +. dur, sf +. self))
        tbl);
  let rows =
    Hashtbl.fold
      (fun name (n, d, sf) acc ->
        (name, n, d /. float_of_int n, sf /. float_of_int n) :: acc)
      per []
  in
  tbl, List.sort compare rows

(* --- load generator: the in-process replay ---------------------------------------- *)

type replayed = { warm_s : float; rebases : int }

(* Replay the traced op stream in this process, on a fresh copy of the
   seeded store, through the same calls the server makes — each call
   spanned. A commit begins its session on the state this connection
   last saw (after its own previous commit), so the other connection's
   commits since then are checked for overlap as the server checks
   them. *)
let replay w ~seed ~rundir ~ops ~budget =
  let dir = Filename.concat rundir "replay" in
  mkdir_p dir;
  let store = Filename.concat dir "store.pgn" in
  or_fail "replay seed"
    (Penguin.Store.save_file (seed_workspace w (initial_grades w seed)) store);
  let ws0, report = or_fail "replay open" (Penguin.Recovery.open_store store) in
  let app =
    or_fail "replay appender"
      (Penguin.Recovery.Appender.create ~expect_epoch:report.Penguin.Recovery.epoch
         ~store ws0)
  in
  let cache = Penguin.Workspace.attach_cache ws0 in
  let tw = now () in
  timed "cache.warm" (-1) (fun () -> Viewobject.Cache.warm cache);
  let warm_s = now () -. tw in
  let ws = ref ws0 in
  let seen = Array.make w.clients ws0 in
  let rebases = ref 0 in
  let one op =
    match op with
    | Read { opid; course } ->
        timed "replay.read" opid @@ fun () ->
        (match
           timed "cache.oql" opid (fun () ->
               Viewobject.Cache.oql cache object_name (read_query course))
         with
        | Ok [ _ ] -> ()
        | Ok l -> problem "replayed read of %s: %d instances" (course_id course)
                    (List.length l)
        | Error m -> problem "replayed read: %s" m)
    | Write { opid; course; slot; grade } ->
        timed "replay.commit" opid @@ fun () ->
        let c = opid mod w.clients in
        let snap = seen.(c) in
        let stmt = write_stmt ~course ~slot ~grade in
        let reqs =
          or_fail_s "replay upql"
            (timed "upql.requests" opid (fun () ->
                 Penguin.Upql.requests snap ~object_name stmt))
        in
        let queue ws =
          timed "session.queue" opid (fun () ->
              List.fold_left
                (fun s r -> or_fail "replay queue" (Penguin.Session.queue s object_name r))
                (Penguin.Session.begin_ ws) reqs)
        in
        let sess = queue snap in
        let sess =
          match Penguin.Session.divergence !ws sess with
          | Penguin.Session.Clean -> sess
          | _ ->
              incr rebases;
              queue !ws
        in
        let staged = Penguin.Session.staged sess in
        let cur = !ws in
        let db, _ =
          match
            timed "engine.commit_group" opid (fun () ->
                Vo_core.Engine.commit_group cur.Penguin.Workspace.graph
                  cur.Penguin.Workspace.db staged)
          with
          | Ok r -> r
          | Error rej ->
              fail "replay commit: %s" (Vo_core.Engine.group_rejection_reason rej)
        in
        let log =
          List.fold_left
            (fun log st ->
              Penguin.Commit_log.append log ~delta:st.Vo_core.Engine.delta
                ~kind:st.Vo_core.Engine.request_kind)
            cur.Penguin.Workspace.log staged
        in
        let next = { cur with Penguin.Workspace.db; log } in
        ignore
          (or_fail "replay append"
             (timed "appender.append" opid (fun () ->
                  Penguin.Recovery.Appender.append app
                    ~since:(Penguin.Workspace.version cur) next))
            : Penguin.Recovery.persisted);
        timed "cache.sync" opid (fun () -> Penguin.Workspace.sync_cache next cache);
        ws := next;
        seen.(c) <- next
  in
  (* Commits first, in order, then the reads: 60% of the budget, then the
     rest, and at least 20 of each whatever the budget. *)
  let writes, reads = List.partition (function Write _ -> true | Read _ -> false) ops in
  let t0 = now () in
  let until frac =
    let n = ref 0 in
    fun op ->
      if !n < 20 || now () < t0 +. (frac *. budget) then begin
        incr n;
        one op
      end
  in
  List.iter (until 0.6) writes;
  List.iter (until 1.0) reads;
  rm_rf dir;
  { warm_s; rebases = !rebases }

(* --- load generator: per-layer run -------------------------------------------------- *)

(* Untraced and traced segments alternate on one server lifetime, so the
   tracing overhead compares mean rates taken under the same host
   conditions. The order (U T T U T U U T) gives both kinds the same mean
   position, so a server that slows as its run goes on does not read as
   tracing overhead. The loop gets 60% of [seconds], the replay the
   rest. *)
let trace_order = [ false; true; true; false; true; false; false; true ]

let run_traced (w : workload) ~seed ~seconds ~rundir ~out_dir =
  let e = fresh_expect (initial_grades w seed) in
  let s, _ = setup w ~seed ~rundir ~name:"traced" ~traced:true e in
  describe w ~seed s;
  spans := [];
  let seg_s = 0.6 *. seconds /. float_of_int (List.length trace_order) in
  let m =
    measure w s e ~segments:(List.map (fun on -> seg_s, on) trace_order)
  in
  let rates on =
    List.filter_map
      (fun g ->
        if g.traced = on then Some (float_of_int g.seg_ops /. g.seg_s) else None)
      m.segs
  in
  let plain_ops = mean (rates false) and traced_ops = mean (rates true) in
  say "  ops/s untraced %s, traced %s"
    (String.concat " " (List.map (Fmt.str "%.1f") (rates false)))
    (String.concat " " (List.map (Fmt.str "%.1f") (rates true)));
  let sgroups = parse_events s.events_path in
  let fgroups = parse_events (Filename.concat s.dir "follower.events") in
  let fs = List.concat_map fst sgroups in
  let rotations = List.concat_map (fun (f, _) -> rotation_spans f) sgroups in
  let rounds = List.concat_map (fun (_, n) -> push_rounds n) fgroups in
  let waits = List.concat_map (fun (f, n) -> quorum_waits f n) sgroups in
  let served =
    List.map (fun f ->
        let name =
          if f.f_j && (f.f_op = "append" || f.f_op = "sync") then "fsio." ^ f.f_op
          else "fsio." ^ f.f_op ^ (if f.f_j then "_journal" else "_other")
        in
        { name; op = -1; t0 = f.f_t0; t1 = f.f_t1; parent = -1 })
      fs
    @ List.map (fun (a, b) -> { name = "recovery.rotate"; op = -1; t0 = a; t1 = b; parent = -1 }) rotations
    @ List.map (fun (a, b) -> { name = "replica.push_apply"; op = -1; t0 = a; t1 = b; parent = -1 }) rounds
    @ List.concat_map (fun (_, n) -> residences n) sgroups
  in
  rm_rf s.dir;
  (* The replay: the traced op stream, oldest first. *)
  tracing := true;
  let r =
    replay w ~seed ~rundir ~ops:(List.rev m.tally.log) ~budget:(0.4 *. seconds)
  in
  tracing := false;
  mkdir_p out_dir;
  let tbl, rows =
    span_table ~out_path:(Filename.concat out_dir ("trace-" ^ w.name ^ ".tsv"))
      (served @ !spans)
  in
  spans := [];
  say "  traced spans: %d (written to %s)" (Array.length tbl)
    (Filename.concat out_dir ("trace-" ^ w.name ^ ".tsv"));
  say "  %-26s %8s %12s %12s" "span" "count" "mean us" "self us";
  List.iter
    (fun (name, n, d, sf) ->
      say "  %-26s %8d %12.1f %12.1f" name n (d *. 1e6) (sf *. 1e6))
    rows;
  (* Client-observed commit latency no layer span covers. *)
  let kids = Hashtbl.create 4096 in
  Array.iter
    (fun sp ->
      if sp.parent >= 0 && tbl.(sp.parent).name = "client.commit" then
        Hashtbl.replace kids sp.parent
          ((sp.t0, sp.t1) :: Option.value ~default:[] (Hashtbl.find_opt kids sp.parent)))
    tbl;
  let total = ref 0. and covered = ref 0. in
  Array.iteri
    (fun i sp ->
      if sp.name = "client.commit" then begin
        total := !total +. (sp.t1 -. sp.t0);
        covered :=
          !covered
          +. cover (sp.t0, sp.t1) (Option.value ~default:[] (Hashtbl.find_opt kids i))
      end)
    tbl;
  let span_mean name =
    let l =
      Array.fold_left
        (fun acc sp -> if sp.name = name then (sp.t1 -. sp.t0) :: acc else acc)
        [] tbl
    in
    mean l
  in
  let st0 = m.st0 and st1 = m.st1 in
  let dc name = counter st1 name -. counter st0 name in
  let dh_us name =
    ratio (hist st1 name "sum_ns" -. hist st0 name "sum_ns")
      (hist st1 name "count" -. hist st0 name "count")
    /. 1e3
  in
  (* Commits acked in the traced segments, which the per-commit Fsio
     figures divide by. *)
  let commits =
    float_of_int
      (max 1
         (List.fold_left
            (fun a g -> if g.traced then a + g.seg_commits else a)
            0 m.segs))
  in
  let jsyncs = List.filter (fun f -> f.f_op = "sync" && f.f_j) fs in
  (* The replication layers run only in commit_quorum; elsewhere they do
     no work and read 0. *)
  let quorum_wait, push_apply =
    if w.quorum then
      median waits *. 1e6, median (List.map (fun (a, b) -> b -. a) rounds) *. 1e6
    else 0., 0.
  in
  say "  replica.* %s; netio.ping_us from %d pings"
    (if w.quorum then
       Fmt.str "from the served push follower (%d quorum waits, %d push rounds)"
         (List.length waits) (List.length rounds)
     else "not run on this workload (0)")
    (List.length m.pings);
  let hits = dc "cache.hits" and misses = dc "cache.misses" in
  {
    correct = !problems = [] && m.tally.failed = 0;
    attempted = m.tally.attempted;
    failed = m.tally.failed;
    metrics =
      [
        "netio.ping_us", median m.pings *. 1e6, "us";
        "server.request_us", dh_us "server.request_ns", "us";
        "server.flush_us", dh_us "server.flush_ns", "us";
        "server.park_wait_us", dh_us "server.commit_ns", "us";
        "server.commits_per_window",
        ratio (dc "server.commits") (dc "server.windows"), "count";
        "upql.requests_us", span_mean "upql.requests" *. 1e6, "us";
        "session.queue_us", span_mean "session.queue" *. 1e6, "us";
        "session.rebases", float_of_int r.rebases, "count";
        "engine.translate_us", dh_us "engine.translate_ns", "us";
        "engine.stage_apply_us", dh_us "engine.stage_apply_ns", "us";
        "engine.global_check_us", dh_us "engine.global_check_ns", "us";
        "engine.commit_group_us", dh_us "engine.commit_group_ns", "us";
        "journal.append_us", dh_us "journal.append_ns", "us";
        "fsio.sync_us",
        mean (List.map (fun f -> f.f_t1 -. f.f_t0) jsyncs) *. 1e6, "us";
        "fsio.syncs_per_commit",
        float_of_int (List.length (List.filter (fun f -> f.f_op = "sync") fs))
        /. commits, "count";
        "journal.bytes_per_commit",
        float_of_int
          (List.fold_left
             (fun a f -> if f.f_op = "append" && f.f_j then a + f.f_bytes else a)
             0 fs)
        /. commits, "B";
        "recovery.rotate_us",
        mean (List.map (fun (a, b) -> b -. a) rotations) *. 1e6, "us";
        "recovery.rotations_per_1k_commits",
        1000. *. ratio (dc "journal.rotations") (dc "server.commits"), "count";
        "cache.oql_us", span_mean "cache.oql" *. 1e6, "us";
        "cache.hit_ratio", ratio hits (hits +. misses), "ratio";
        "cache.patch_us", dh_us "cache.patch_ns", "us";
        "cache.sync_us", span_mean "cache.sync" *. 1e6, "us";
        "cache.warm_ms", r.warm_s *. 1e3, "ms";
        "replica.quorum_wait_us", quorum_wait, "us";
        "replica.push_apply_us", push_apply, "us";
        "trace.overhead_pct", 100. *. (plain_ops -. traced_ops) /. plain_ops, "%";
        "trace.unattributed_pct", 100. *. (1. -. ratio !covered !total), "%";
      ];
  }

(* --- entry points --------------------------------------------------------------- *)

let print_outcome o =
  say "  %d ops attempted, %d failed; checks %s" o.attempted o.failed
    (if o.correct then "passed" else "FAILED");
  List.iter (fun p -> say "  check failed: %s" p) (List.rev !problems);
  List.iter (fun (n, v, u) -> say "  %-34s %14.4f %s" n v u) o.metrics;
  let num f = Obs.Json.Num f in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            "correct", Obs.Json.Bool o.correct;
            "attempted", num (float_of_int o.attempted);
            "failed", num (float_of_int o.failed);
            ( "metrics",
              Obs.Json.Obj
                (List.map
                   (fun (n, v, u) ->
                     n, Obs.Json.Obj [ "value", num v; "unit", Obs.Json.Str u ])
                   o.metrics) );
          ]))

let usage () =
  prerr_endline
    "usage: servebench --workload NAME --seed N --seconds S --trace 0|1\n\
    \       servebench smoke\n\
    \       servebench serve --store PATH --sock PATH [--quorum] [--events PATH]\n\
    \       servebench follow --sock PATH --target PATH [--events PATH]";
  exit 2

let args_of argv =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" && v <> "--quorum" && k <> "--quorum" ->
        go ((k, v) :: acc) rest
    | "--quorum" :: rest -> go (("--quorum", "1") :: acc) rest
    | [] -> acc
    | a :: _ -> Fmt.epr "servebench: unexpected argument %S@." a; usage ()
  in
  go [] argv

(* A fresh run directory inside the working directory; the load generator works
   from it (children inherit it), so socket paths stay short. *)
let with_rundir label f =
  let home = Sys.getcwd () in
  let rundir =
    Filename.concat home
      (Filename.concat ".servebench-tmp" (Fmt.str "%s-%d" label (Unix.getpid ())))
  in
  (* Run directories left by a load generator that was killed outright. *)
  let parent = Filename.dirname rundir in
  if Sys.file_exists parent then
    Array.iter
      (fun d ->
        match int_of_string_opt (List.nth (String.split_on_char '-' d) 1) with
        | Some pid when (try Unix.kill pid 0; false with Unix.Unix_error _ -> true) ->
            rm_rf (Filename.concat parent d)
        | _ -> ()
        | exception _ -> ())
      (Sys.readdir parent);
  rm_rf rundir;
  mkdir_p rundir;
  let cleanup () =
    List.iter kill_and_reap !children;
    children := [];
    (try Sys.chdir home with Sys_error _ -> ());
    rm_rf rundir;
    try Unix.rmdir (Filename.dirname rundir) with Unix.Unix_error _ -> ()
  in
  at_exit cleanup;
  Sys.chdir rundir;
  Fun.protect ~finally:cleanup (fun () -> f ~home)

let loadgen_init () =
  (* The load generator's own collections land inside the calls it times; an
     8 MB minor heap makes them rare. The server keeps its defaults. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20 };
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ]

let find_workload name =
  match List.find_opt (fun (w : workload) -> w.name = name) workloads with
  | Some w -> w
  | None ->
      Fmt.epr "servebench: unknown workload %S (one of %s)@." name
        (String.concat ", " (List.map (fun (w : workload) -> w.name) workloads));
      exit 2

let one_run (w : workload) ~seed ~seconds ~trace ~setups =
  with_rundir w.name @@ fun ~home ->
  if trace then
    run_traced w ~seed ~seconds ~rundir:"."
      ~out_dir:(Filename.concat home ".servebench-out")
  else run_plain w ~seed ~seconds ~setups ~rundir:"."

let main_loadgen args =
  let get k = List.assoc_opt k args in
  let int k = Option.bind (get k) int_of_string_opt in
  match get "--workload", int "--seed", Option.bind (get "--seconds") float_of_string_opt, int "--trace" with
  | Some name, Some seed, Some seconds, Some trace when seconds > 0. && (trace = 0 || trace = 1) ->
      let w = find_workload name in
      let o =
        try one_run w ~seed ~seconds ~trace:(trace = 1) ~setups:5
        with Failed m ->
          Fmt.epr "servebench: %s@." m;
          exit 1
      in
      print_outcome o;
      if not o.correct then exit 1
  | _ -> usage ()

(* Every workload, briefly, in both modes: the benchmark's own test. *)
let main_smoke () =
  let ok =
    List.for_all
      (fun (w : workload) ->
        List.for_all
          (fun trace ->
            problems := [];
            say "smoke: %s --trace %d" w.name (if trace then 1 else 0);
            match one_run w ~seed:7 ~seconds:1. ~trace ~setups:1 with
            | o ->
                print_outcome o;
                o.correct
            | exception Failed m ->
                say "smoke: %s failed: %s" w.name m;
                false)
          [ false; true ])
      workloads
  in
  say "smoke: %s" (if ok then "all workloads passed" else "FAILED");
  exit (if ok then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "serve" :: rest -> (
      let a = args_of rest in
      match List.assoc_opt "--store" a, List.assoc_opt "--sock" a with
      | Some store, Some sock ->
          serve_main ~store ~sock ~quorum:(List.mem_assoc "--quorum" a)
            ~events_path:(Option.value ~default:"" (List.assoc_opt "--events" a))
      | _ -> usage ())
  | _ :: "follow" :: rest -> (
      let a = args_of rest in
      match List.assoc_opt "--sock" a, List.assoc_opt "--target" a with
      | Some sock, Some target ->
          follow_main ~sock ~target
            ~events_path:(Option.value ~default:"" (List.assoc_opt "--events" a))
      | _ -> usage ())
  | [ _; "smoke" ] ->
      loadgen_init ();
      main_smoke ()
  | _ :: rest ->
      loadgen_init ();
      main_loadgen (args_of rest)
  | [] -> usage ()
