(* A seeded simulator for the serving core (Penguin.Server_core): the
   real engine over the bench fixture, driven through random
   interleavings by a fake event loop — a fake clock, a fake appender that
   rotates every few appends, sometimes fails and sometimes lands its
   result rounds later (commits park behind it meanwhile), fake push
   followers that ack random durable versions, and random client
   disconnects.
   Every seed is checked against the serving invariants:

   1. the wake-up is never "block" while a live connection holds a
      complete frame or is owed a commit's answer;
   2. every commit request delivered to the core gets exactly one
      answer unless its connection closed first; acked versions are
      unique, and the appended records hold exactly the acked commits
      (plus those whose client left, or that the Fail lag policy shed,
      after the append);
   3. with sync_replicas = K, every ack is covered by K followers, or
      carries (warning under_replicated) — also when its window's
      append rotated the journal;
   4. the leader's commit log is bounded by its sessions: once an
      append lands, the log holds no entry at or below the minimum of
      the version and the base of every session begun and not yet
      answered, so the next Append's workspace holds none either; and
      no session ever rebases through Unknown_history (the trim never
      cuts below a session that will still commit).

   The window-semantics cases run on the same harness with a held
   clock: time moves only when a case says so. *)
open Test_util

module Core = Penguin.Server_core
module E = Penguin.Error
module Sexp = Relational.Sexp

let ws0 =
  lazy
    (let dir = temp_dir "server-sim" in
     Test_server.make_bench_store dir 8;
     let ws, _ = check_ok_e (Penguin.Recovery.open_store (Test_recovery.store_in dir)) in
     rm_rf dir;
     ws)

(* --- the fake event loop -------------------------------------------------- *)

(* What the core owes a delivered request: an answer, or (commit [n]) an
   answer to commit number [n]; a feed request is answered through the
   feed, not by the core. *)
type tag = Plain | Commit of int | Feed

type conn = {
  id : int;
  inbox : (string * tag) Queue.t;  (** complete frames buffered, unread *)
  owed : tag Queue.t;  (** delivered requests not yet answered *)
  mutable sent : string list;  (** every payload the core sent, newest first *)
  mutable dropped : bool;  (** the client disconnected *)
  mutable closed : bool;  (** the core closed it *)
  mutable follower : bool;
  mutable acked : int;  (** a follower's acked durable version *)
  mutable base : int option;
      (** the base of the session begun here whose commit is unanswered *)
  mutable held : (string * tag) option;
      (** a commit frame the client holds back, its session left open *)
}

type answer = Acked of int list * bool | Failed of string * bool  (** kind, retryable *)

type world = {
  core : Core.state;
  config : Core.config;
  mutable now : float;
  conns : (int, conn) Hashtbl.t;
  mutable next_id : int;
  events : Core.event Queue.t;
  (* the fake appender *)
  rotate_every : int;
  fail : unit -> bool;
  defer : unit -> bool;  (** deliver the append's result in a later round *)
  mutable landing : (unit, E.t) result option;  (** the deferred result *)
  mutable tail : int;
  mutable db : Relational.Database.t;  (** the last appended state *)
  mutable appends : int;
  mutable rotations : int;
  mutable floor : int;  (** invariant 4's bound at the last landed append *)
  records : (int, int * int) Hashtbl.t;
      (** version -> commit, its window's last version *)
  (* the accounting *)
  owner : (int, conn) Hashtbl.t;  (** commit -> its connection *)
  answers : (int, answer) Hashtbl.t;  (** commit -> its one answer *)
  acked : (int, unit) Hashtbl.t;  (** every acked version *)
  mutable next_commit : int;
  mutable violations : string list;
}

let world ?(config = Core.default_config) ?(rotate_every = max_int)
    ?(fail = fun () -> false) ?(defer = fun () -> false) () =
  let ws = Lazy.force ws0 in
  {
    core = Core.create ~config ws;
    config; now = 0.; conns = Hashtbl.create 16; next_id = 0;
    events = Queue.create (); rotate_every; fail; defer; landing = None;
    tail = Penguin.Workspace.version ws; db = ws.db; appends = 0; rotations = 0;
    floor = 0;
    records = Hashtbl.create 64; owner = Hashtbl.create 64;
    answers = Hashtbl.create 64; acked = Hashtbl.create 64; next_commit = 0;
    violations = [];
  }

let violation w fmt = Fmt.kstr (fun m -> w.violations <- m :: w.violations) fmt
let live c = not (c.dropped || c.closed)

(* The commit a journal record belongs to: every simulated commit sets
   one grade to "g<commit>". *)
let commit_of (e : Penguin.Commit_log.entry) =
  match e.change with
  | Penguin.Commit_log.Barrier _ -> None
  | Penguin.Commit_log.Delta d ->
      List.find_map
        (function
          | Relational.Delta.Updated { after; _ } -> (
              match Relational.Tuple.get after "grade" with
              | Relational.Value.Str g when String.length g > 1 && g.[0] = 'g' ->
                  int_of_string_opt (String.sub g 1 (String.length g - 1))
              | _ -> None)
          | _ -> None)
        (Relational.Delta.changes d "GRADES")

let parse_answer payload =
  match Sexp.parse payload with
  | Ok (Sexp.List (Sexp.Atom "ok" :: Sexp.List [ Sexp.Atom "committed"; _ ]
                   :: Sexp.List (Sexp.Atom "versions" :: vs) :: rest)) ->
      Some
        (Acked
           ( List.map (function Sexp.Atom v -> int_of_string v | _ -> -1) vs,
             rest <> [] ))
  | Ok (Sexp.List [ Sexp.Atom "error"; Sexp.Atom kind; Sexp.Atom r; _ ]) ->
      Some (Failed (kind, r = "true"))
  | _ -> None

(* Invariant 3 for one ack: K live followers have acked its window's
   last version, or it is marked. *)
let check_quorum w c n (versions, warn) =
  List.iter
    (fun v ->
      if Hashtbl.mem w.acked v then violation w "version %d acked twice" v;
      Hashtbl.replace w.acked v ();
      match Hashtbl.find_opt w.records v with
      | None -> violation w "commit %d acked v%d, which no append holds" n v
      | Some (n', _) when n' <> n ->
          violation w "commit %d acked v%d, which holds commit %d" n v n'
      | Some (_, last) ->
          let covering =
            Hashtbl.fold
              (fun _ f k ->
                if live f && f.follower && f.acked >= last then k + 1 else k)
              w.conns 0
          in
          if covering < w.config.sync_replicas && not warn then
            violation w "conn %d: v%d acked with %d of %d followers" c.id v
              covering w.config.sync_replicas)
    versions

let answered w c payload =
  if not (live c) then violation w "conn %d: sent %S after it closed" c.id payload;
  c.sent <- payload :: c.sent;
  match Queue.take_opt c.owed with
  | None -> violation w "conn %d: answer %S to no request" c.id payload
  | Some Feed -> ()
  | Some Plain ->
      Scanf.sscanf_opt payload "(ok (begun %d))" (fun v -> c.base <- Some v)
      |> ignore
  | Some (Commit n) -> (
      c.base <- None;
      match parse_answer payload with
      | None -> violation w "commit %d: unparsable answer %S" n payload
      | Some a ->
          if Hashtbl.mem w.answers n then violation w "commit %d answered twice" n;
          Hashtbl.replace w.answers n a;
          match a with
          | Acked (vs, warn) when vs <> [] -> check_quorum w c n (vs, warn)
          | _ -> ())

(* Invariant 4's bound, taken as an append lands: no later window asks
   the log about history at or below it. *)
let retention_bound w =
  Hashtbl.fold
    (fun _ c acc ->
      match c.base with Some b when live c -> min acc b | _ -> acc)
    w.conns w.tail

let fake_append w since (ws : Penguin.Workspace.t) =
  if since <> w.tail then violation w "append since v%d, journal at v%d" since w.tail;
  (match
     List.find_opt
       (fun (e : Penguin.Commit_log.entry) -> e.version <= w.floor)
       (Penguin.Commit_log.entries ws.log)
   with
  | Some e ->
      violation w "invariant 4: the log holds v%d, at or below the bound v%d"
        e.version w.floor
  | None -> ());
  let result =
    if w.fail () then
      Error (E.io ~op:E.Sync ~path:"sim.journal" ~transient:true "injected")
    else begin
      let entries = Penguin.Commit_log.entries_since ws.log since in
      let last = Penguin.Workspace.version ws in
      w.appends <- w.appends + 1;
      List.iter
        (fun (e : Penguin.Commit_log.entry) ->
          match commit_of e with
          | Some n -> Hashtbl.replace w.records e.version (n, last)
          | None -> violation w "v%d: record of no simulated commit" e.version)
        entries;
      w.tail <- last;
      w.db <- ws.db;
      (* A rotation replaces the journal file, which the core never
         sees: positions are versions. *)
      if w.appends mod w.rotate_every = 0 then w.rotations <- w.rotations + 1;
      Ok ()
    end
  in
  if w.defer () then w.landing <- Some result
  else begin
    (* The fsync takes a millisecond of simulated time. *)
    w.now <- w.now +. 1e6;
    Queue.push (Core.Tick w.now) w.events;
    Queue.push (Core.Appended result) w.events
  end

let exec w = function
  | Core.Send (id, payloads) ->
      List.iter (answered w (Hashtbl.find w.conns id)) payloads
  | Core.Close id -> (Hashtbl.find w.conns id).closed <- true
  | Core.Append (since, ws) -> fake_append w since ws
  | Core.Feed (id, _) ->
      let c = Hashtbl.find w.conns id in
      ignore (Queue.take_opt c.owed);
      c.follower <- true;
      c.acked <- w.tail;
      Queue.push (Core.Subscribed (id, w.tail)) w.events

let pump w ev =
  Queue.push ev w.events;
  while not (Queue.is_empty w.events) do
    let ev = Queue.pop w.events in
    let _, actions = Core.step w.core ev in
    List.iter (exec w) actions;
    match ev with
    | Core.Appended (Ok ()) -> w.floor <- retention_bound w
    | _ -> ()
  done

let tick w = pump w (Core.Tick w.now)

(* Deliver a deferred append result. *)
let deliver w =
  Option.iter
    (fun result ->
      w.landing <- None;
      tick w;
      pump w (Core.Appended result))
    w.landing

let open_conn w =
  w.next_id <- w.next_id + 1;
  let c =
    { id = w.next_id; inbox = Queue.create (); owed = Queue.create ();
      sent = []; dropped = false; closed = false; follower = false;
      acked = 0; base = None; held = None }
  in
  Hashtbl.replace w.conns c.id c;
  pump w (Core.Opened c.id);
  c

let write c frames = List.iter (fun f -> Queue.push f c.inbox) frames

let queue_frame stmt =
  Sexp.to_string (Sexp.List [ Sexp.Atom "queue"; Sexp.Atom "omega"; Sexp.Atom stmt ]),
  Plain

let grade_stmt ~course grade =
  Fmt.str "set GRADES[pid = %d] grade = '%s' where course_id = 'BENCH%03d'"
    (2000 + course) grade course

(* Number the next commit, owned by [c]. *)
let next_commit w c =
  let n = w.next_commit in
  w.next_commit <- n + 1;
  Hashtbl.replace w.owner n c;
  n

(* One session round setting course [course]'s grade, pipelined as one
   write — or, with [hold], all but the commit, which {!release} writes
   later; returns the commit's number. *)
let txn ?(hold = false) w c ~course =
  let n = next_commit w c in
  let open_ =
    [ "(begin)", Plain; queue_frame (grade_stmt ~course (Fmt.str "g%d" n)) ]
  in
  if hold then begin
    write c open_;
    c.held <- Some ("(commit)", Commit n)
  end
  else write c (open_ @ [ "(commit)", Commit n ]);
  n

let release c =
  Option.iter
    (fun frame ->
      c.held <- None;
      write c [ frame ])
    c.held

let disconnect w c =
  c.dropped <- true;
  pump w (Core.Closed c.id)

(* Hand the core each connection's buffered frames while it wants them. *)
let drain w =
  List.iter
    (fun c ->
      while Core.wants w.core c.id && not (Queue.is_empty c.inbox) do
        let payload, tag = Queue.pop c.inbox in
        Queue.push tag c.owed;
        pump w (Core.Frame (c.id, payload))
      done)
    (List.sort (fun a b -> compare a.id b.id)
       (Hashtbl.fold (fun _ c l -> c :: l) w.conns []))

(* Invariant 1: the loop never blocks while it has work — a complete
   frame buffered on a live connection, or a commit still owed its
   answer (parked in the window, in flight, or on a quorum wait, which
   has a deadline). [faithful] withholds the buffered frames from the
   core, as the loop head did before the buffered-frame fix: it never
   looked at them. *)
let check_wake ?(faithful = false) w =
  let held =
    if faithful then []
    else
      Hashtbl.fold
        (fun id c l -> if Queue.is_empty c.inbox then l else id :: l)
        w.conns []
  in
  let wake = Core.wake w.core ~held in
  let owes_commit c =
    Queue.fold (fun b t -> b || match t with Commit _ -> true | _ -> false) false c.owed
  in
  if wake = None then
    Hashtbl.iter
      (fun _ c ->
        if live c && not (Queue.is_empty c.inbox) then
          violation w "invariant 1: blocks with a frame buffered on conn %d" c.id;
        if live c && owes_commit c then
          violation w "invariant 1: blocks with a commit unanswered on conn %d" c.id)
      w.conns;
  wake

(* --- the random run --------------------------------------------------------- *)

let run_seed ?faithful seed =
  let rng = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let chance p = Random.State.float rng 1. < p in
  let config =
    { Core.default_config with
      flush_window = pick [ 1; 2; 3; 64 ];
      flush_interval_ns = pick [ 0.; 1e6; 10e6 ];
      sync_replicas = pick [ 0; 0; 1; 2 ];
      repl_deadline_ns = pick [ 2e6; 20e6; 200e6 ];
      on_lag = pick [ Core.Degrade; Core.Fail ] }
  in
  let w =
    world ~config ~rotate_every:(2 + Random.State.int rng 4)
      ~fail:(fun () -> chance 0.1) ~defer:(fun () -> chance 0.3) ()
  in
  Obs.Metrics.enable ();
  let unknown = Obs.Metrics.counter "session.rebase_unknown_history" in
  let unknown0 = Obs.Metrics.Counter.value unknown in
  let budget = ref (10 + Random.State.int rng 20) in
  let all p =
    Hashtbl.fold (fun _ c l -> if live c && p c then c :: l else l) w.conns []
    |> List.sort (fun a b -> compare a.id b.id)
  in
  let clients () = all (fun c -> not c.follower) in
  let followers () = all (fun c -> c.follower) in
  (* One random input, if there is one to give: a client connects, a
     follower subscribes or acks, a client leaves, or a client writes a
     session round (up to two pipelined ahead of its answers), perhaps
     holding back its commit, or writes a commit it held back. *)
  let input () =
    let idle c = Queue.length c.inbox + Queue.length c.owed <= 3 in
    match Random.State.int rng 10 with
    | 0 when List.length (clients ()) < 4 ->
        ignore (open_conn w);
        true
    | 1 when config.sync_replicas > 0
             && List.length (followers ()) <= config.sync_replicas ->
        write (open_conn w) [ "(subscribe 0)", Feed ];
        true
    | (2 | 3) when followers () <> [] ->
        let f = pick (followers ()) in
        if Core.wants w.core f.id then begin
          f.acked <-
            (if chance 0.5 then w.tail
             else f.acked + Random.State.int rng (w.tail - f.acked + 1));
          pump w (Core.Follower_ack (f.id, f.acked))
        end;
        true
    | 4 when chance 0.2 && all (fun _ -> true) <> [] ->
        disconnect w (pick (all (fun _ -> true)));
        true
    | _ -> (
        let holding = all (fun c -> c.held <> None) in
        match List.filter (fun c -> idle c && c.held = None) (clients ()) with
        | _ when holding <> [] && chance 0.5 ->
            release (pick holding);
            true
        | cs when cs <> [] && !budget > 0 ->
            decr budget;
            ignore
              (txn w (pick cs) ~course:(1 + Random.State.int rng 8)
                 ~hold:(chance 0.3));
            true
        | _ -> false)
  in
  let rounds = ref 0 in
  let step_round ~inputs =
    incr rounds;
    if chance 0.5 then deliver w;
    drain w;
    (* Half the time the clock is read after the drain, as the loop head
       before the fix did, and half the time only after the wait, as
       Server.serve does. *)
    if chance 0.5 then begin
      w.now <- w.now +. Random.State.float rng 2e6;
      tick w
    end;
    let wake = check_wake ?faithful w in
    let got = inputs && (wake = None || chance 0.7) && input () in
    (match wake with
    | Some t when not got -> w.now <- Float.max w.now t
    | _ -> w.now <- w.now +. Random.State.float rng 1e6);
    tick w;
    if not got then pump w Core.Idle;
    got || wake <> None
  in
  ignore (open_conn w);
  while !rounds < 2000 && (step_round ~inputs:true || !budget > 0) do () done;
  (* Wind down: let the backlog settle, then shut down. *)
  List.iter release (clients ());
  for _ = 1 to 20 do ignore (step_round ~inputs:false) done;
  let stopper = open_conn w in
  write stopper [ "(shutdown)", Plain ];
  while (not (Core.stopped w.core)) && !rounds < 3000 do
    ignore (step_round ~inputs:false)
  done;
  if not (Core.stopped w.core) then violation w "never stopped";
  let acks =
    Hashtbl.fold (fun _ a k -> match a with Acked (_ :: _, _) -> k + 1 | _ -> k)
      w.answers 0
  in
  if (Core.stats w.core).Core.commits <> acks then
    violation w "the core counts %d commits acked, the clients got %d"
      (Core.stats w.core).Core.commits acks;
  if Obs.Metrics.Counter.value unknown <> unknown0 then
    violation w "invariant 4: %d session(s) rebased through Unknown_history"
      (Obs.Metrics.Counter.value unknown - unknown0);
  if Core.parked w.core <> 0 then
    violation w "%d parked commit(s) never returned their admission slot"
      (Core.parked w.core);
  (* Invariant 2: every delivered request answered unless its client
     left; the records hold exactly the acked commits. *)
  Hashtbl.iter
    (fun _ c ->
      if (not c.dropped) && not (Queue.is_empty c.owed) then
        violation w "conn %d: %d request(s) unanswered" c.id (Queue.length c.owed))
    w.conns;
  let versions = Hashtbl.fold (fun v _ l -> v :: l) w.records [] |> List.sort compare in
  let v0 = Penguin.Workspace.version (Lazy.force ws0) in
  if versions <> List.init (List.length versions) (fun i -> v0 + i + 1) then
    violation w "appended versions are not dense";
  Hashtbl.iter
    (fun v (n, _) ->
      match Hashtbl.find_opt w.answers n with
      | Some (Acked (vs, _)) when List.mem v vs -> ()
      | Some (Failed ("deadline", _)) -> ()
      | None when (Hashtbl.find w.owner n).dropped -> ()
      | _ -> violation w "v%d (commit %d) appended but never acked" v n)
    w.records;
  Hashtbl.iter
    (fun n a ->
      match a with
      | Acked (vs, _) ->
          List.iter
            (fun v ->
              if not (Hashtbl.mem w.records v) then
                violation w "commit %d: acked v%d never appended" n v)
            vs
      | Failed _ -> ())
    w.answers;
  w

let seeds = List.init 200 (fun i -> i + 1)

let test_invariants () =
  let rotations = ref 0 and commits = ref 0 in
  List.iter
    (fun seed ->
      let w = run_seed seed in
      (match List.rev w.violations with
      | [] -> ()
      | v :: _ -> Alcotest.failf "seed %d: %s" seed v);
      rotations := !rotations + w.rotations;
      commits := !commits + Hashtbl.length w.answers)
    seeds;
  Fmt.pr "%d seeds, %d commits answered across %d journal rotations@."
    (List.length seeds) !commits !rotations;
  Alcotest.(check bool) "the seeds answered commits" true (!commits > 1000)

(* The loop head before the buffered-frame fix, ported: the same
   triggers, and a wake-up that ignores buffered frames. Some seed must
   catch it blocking with one buffered. *)
let test_faithful_port_hangs () =
  let hangs seed =
    List.exists
      (String.starts_with ~prefix:"invariant 1: blocks with a frame buffered")
      (run_seed ~faithful:true seed).violations
  in
  match List.find_opt hangs seeds with
  | None -> Alcotest.fail "no seed caught the unfixed loop head blocking"
  | Some seed ->
      Fmt.pr "the unfixed loop head blocks with a frame buffered: seed %d@."
        seed

(* --- window semantics on a held clock ------------------------------------- *)

let oks c = List.filter (String.starts_with ~prefix:"(ok") c.sent

let test_window_batches () =
  let n = 3 in
  let w =
    world ~config:{ Core.default_config with flush_window = n; flush_interval_ns = 60e9 } ()
  in
  let v0 = w.tail in
  let conns = List.init n (fun j -> let c = open_conn w in ignore (txn w c ~course:(j + 1)); c) in
  drain w;
  let versions =
    Hashtbl.fold
      (fun _ a l -> match a with Acked (vs, _) -> vs @ l | Failed _ -> l)
      w.answers []
  in
  Alcotest.(check (list int)) "contiguous versions, acked in order"
    (List.init n (fun i -> v0 + i + 1)) (List.sort compare versions);
  Alcotest.(check int) "n commits, ONE append" 1 w.appends;
  let stats = Core.stats w.core in
  Alcotest.(check int) "n commits acked" n stats.Core.commits;
  Alcotest.(check int) "one merged flush for the whole batch" 1 stats.Core.windows;
  List.iter (fun c -> Alcotest.(check int) "begin, queue, commit answered" 3 (List.length (oks c))) conns

let test_window_conflict_culprit () =
  let w = world ~config:{ Core.default_config with flush_window = 2; flush_interval_ns = 60e9 } () in
  (* Both sessions edit the SAME grade tuple: staged deltas overlap, so
     the window's plan admits only the first. *)
  let a = open_conn w and b = open_conn w in
  let na = txn w a ~course:1 in
  let nb = txn w b ~course:1 in
  drain w;
  (match Hashtbl.find_opt w.answers na with
  | Some (Acked (vs, _)) -> Alcotest.(check int) "first parked commit lands" 1 (List.length vs)
  | _ -> Alcotest.fail "first parked commit not acked");
  (match Hashtbl.find_opt w.answers nb with
  | Some (Failed (kind, retryable)) ->
      Alcotest.(check string) "loser gets a typed conflict" "conflict" kind;
      Alcotest.(check bool) "conflict is retryable" true retryable
  | _ -> Alcotest.fail "loser not answered with an error");
  Alcotest.(check int) "only the winner committed" 1 (Core.stats w.core).Core.commits

let grade w ~course =
  let grades = Relational.Database.relation_exn w.db "GRADES" in
  match
    Relational.Relation.lookup grades
      [ Relational.Value.Str (Fmt.str "BENCH%03d" course);
        Relational.Value.Int (2000 + course) ]
  with
  | Some t -> (
      match Relational.Tuple.get t "grade" with
      | Relational.Value.Str g -> g
      | _ -> Alcotest.failf "course %d: grade is not a string" course)
  | None -> Alcotest.failf "no grade for course %d" course

let acked w n =
  match Hashtbl.find_opt w.answers n with
  | Some (Acked (vs, _)) -> vs
  | Some (Failed (kind, _)) -> Alcotest.failf "commit %d answered %s" n kind
  | None -> Alcotest.failf "commit %d not answered" n

let one_by_one = { Core.default_config with flush_window = 1; flush_interval_ns = 60e9 }

(* A session that edits one grade twice, alone in its window: both
   statements commit, in arrival order — as Session.commit does. *)
let test_window_same_tuple_edits () =
  let w = world ~config:one_by_one () in
  let v0 = w.tail in
  let c = open_conn w in
  let n = next_commit w c in
  write c
    [ "(begin)", Plain; queue_frame (grade_stmt ~course:1 "B");
      queue_frame (grade_stmt ~course:1 "A+"); "(commit)", Commit n ];
  drain w;
  Alcotest.(check (list int)) "both statements commit" [ v0 + 1; v0 + 2 ] (acked w n);
  Alcotest.(check string) "the last one wins" "A+" (grade w ~course:1)

(* A session overtaken by a commit to the same course re-derives its
   statement against the new state instead of replaying a stale
   instance image. *)
let test_window_overtaken_session_rederives () =
  let w = world ~config:one_by_one () in
  let v0 = w.tail in
  let a = open_conn w and b = open_conn w in
  let na = next_commit w a in
  write a [ "(begin)", Plain; queue_frame (grade_stmt ~course:1 "B") ];
  drain w;
  let nb = next_commit w b in
  write b
    [ "(begin)", Plain; queue_frame "set units = 4 where course_id = 'BENCH001'";
      "(commit)", Commit nb ];
  drain w;
  write a [ "(commit)", Commit na ];
  drain w;
  Alcotest.(check (list int)) "the overtaking commit" [ v0 + 1 ] (acked w nb);
  Alcotest.(check (list int)) "the overtaken session commits after it" [ v0 + 2 ]
    (acked w na);
  Alcotest.(check string) "its edit landed" "B" (grade w ~course:1)

(* The same scripted sessions, all begun on one state and committed in
   order, once through Session.commit and once through the server: the
   two paths leave the same database at the same version. *)
let test_window_parity_with_session_commit () =
  let script =
    [ [ grade_stmt ~course:1 "B"; grade_stmt ~course:1 "A+" ];
      [ grade_stmt ~course:1 "C" ];
      [ "set units = 4 where course_id = 'BENCH002'" ];
      [ grade_stmt ~course:2 "D" ];
      [ grade_stmt ~course:3 "B-" ] ]
  in
  let ws0 = Lazy.force ws0 in
  let ws =
    List.fold_left
      (fun ws stmts ->
        let s =
          List.fold_left
            (fun s stmt -> check_ok_e (Penguin.Session.queue_stmt s "omega" stmt))
            (Penguin.Session.begin_ ws0) stmts
        in
        fst (check_ok_e (Penguin.Session.commit ws s)))
      ws0 script
  in
  let w = world ~config:one_by_one () in
  let conns =
    List.map
      (fun stmts ->
        let c = open_conn w in
        write c (("(begin)", Plain) :: List.map queue_frame stmts);
        c)
      script
  in
  drain w;
  List.iter
    (fun c ->
      let n = next_commit w c in
      write c [ "(commit)", Commit n ];
      drain w;
      ignore (acked w n))
    conns;
  Alcotest.(check int) "same version" (Penguin.Workspace.version ws) w.tail;
  Alcotest.(check bool) "same database" true
    (Relational.Database.equal ws.Penguin.Workspace.db w.db)

let test_disconnect_while_parked () =
  let interval = 0.05e9 in
  let w = world ~config:{ Core.default_config with flush_window = 2; flush_interval_ns = interval } () in
  let v0 = w.tail in
  let a = open_conn w in
  let na = txn w a ~course:1 in
  drain w;
  (* A's commit is parked; the client vanishes. *)
  let sent_to_a = List.length a.sent in
  disconnect w a;
  (* B's commit still lands — alone, by the age trigger. *)
  let b = open_conn w in
  let nb = txn w b ~course:2 in
  drain w;
  w.now <- w.now +. interval;
  tick w;
  (match Hashtbl.find_opt w.answers nb with
  | Some (Acked (vs, _)) ->
      Alcotest.(check (list int)) "rest of the batch lands, A's dropped" [ v0 + 1 ] vs
  | _ -> Alcotest.fail "B's commit not acked");
  Alcotest.(check int) "only B's commit acked" 1 (Core.stats w.core).Core.commits;
  Alcotest.(check int) "nothing sent to A after it left" sent_to_a (List.length a.sent);
  Alcotest.(check bool) "dropped commit left no trace in the appended records" false
    (Hashtbl.fold (fun _ (n, _) acc -> acc || n = na) w.records false)

let test_limiter_shed () =
  let w =
    world
      ~config:{ Core.default_config with flush_window = 16; flush_interval_ns = 60e9;
                                         max_parked = 1 } ()
  in
  let a = open_conn w and b = open_conn w in
  let na = txn w a ~course:1 in
  drain w;
  (* A holds the only slot. B's commit is shed immediately — typed
     Busy, not a queue or a hang. *)
  let nb = txn w b ~course:2 in
  drain w;
  (match Hashtbl.find_opt w.answers nb with
  | Some (Failed (kind, retryable)) ->
      Alcotest.(check string) "shed with typed Busy" "busy" kind;
      Alcotest.(check bool) "busy is retryable" true retryable
  | _ -> Alcotest.fail "B's commit not shed");
  (* A session's 129th statement is shed the same way: the bound counts
     statements, whatever each one expands to. *)
  let d = open_conn w in
  write d
    (("(begin)", Plain)
    :: List.init 129 (fun i -> queue_frame (grade_stmt ~course:3 (Fmt.str "q%d" i))));
  drain w;
  (match d.sent with
  | shed :: queued :: _ ->
      Alcotest.(check string) "128 statements queued" "(ok (queued 128))" queued;
      Alcotest.(check bool) "the 129th shed with typed Busy" true
        (String.starts_with ~prefix:"(error busy true" shed)
  | _ -> Alcotest.fail "D's statements not answered");
  (* Shutdown flushes the held window: A's parked commit still lands and
     is acked before the server stops. *)
  Alcotest.(check bool) "A still parked" false (Hashtbl.mem w.answers na);
  let c = open_conn w in
  write c [ "(shutdown)", Plain ];
  drain w;
  (match Hashtbl.find_opt w.answers na with
  | Some (Acked (vs, _)) -> Alcotest.(check int) "parked commit acked at shutdown flush" 1 (List.length vs)
  | _ -> Alcotest.fail "A's parked commit not acked at shutdown");
  Alcotest.(check (list string)) "shutdown acknowledged" [ "(ok bye)" ] c.sent;
  Alcotest.(check bool) "stopped" true (Core.stopped w.core)

(* No socket test reaches the pending-window branch of a disconnect: two
   commits share one window parked on a quorum wait, A's client leaves,
   then the follower acks. *)
let test_disconnect_on_quorum_wait () =
  Obs.Metrics.enable ();
  let dropped = Obs.Metrics.counter "server.dropped_parked" in
  let before = Obs.Metrics.Counter.value dropped in
  let w =
    world
      ~config:{ Core.default_config with flush_window = 2; flush_interval_ns = 60e9;
                sync_replicas = 1; repl_deadline_ns = 60e9 } ()
  in
  let f = open_conn w in
  write f [ "(subscribe 0)", Feed ];
  drain w;
  Alcotest.(check bool) "follower subscribed" true f.follower;
  let a = open_conn w and b = open_conn w in
  let na = txn w a ~course:1 in
  let nb = txn w b ~course:2 in
  drain w;
  Alcotest.(check int) "one append for the window" 1 w.appends;
  Alcotest.(check bool) "both parked on the quorum" false
    (Hashtbl.mem w.answers na || Hashtbl.mem w.answers nb);
  Alcotest.(check int) "two commits parked" 2 (Core.parked w.core);
  let sent_to_a = List.length a.sent in
  disconnect w a;
  Alcotest.(check int) "A's admission slot returned" 1 (Core.parked w.core);
  Alcotest.(check int) "server.dropped_parked counts it" (before + 1)
    (Obs.Metrics.Counter.value dropped);
  pump w (Core.Follower_ack (f.id, w.tail));
  (match Hashtbl.find_opt w.answers nb with
  | Some (Acked (vs, warn)) ->
      Alcotest.(check int) "B released by the quorum" 1 (List.length vs);
      Alcotest.(check bool) "without a warning" false warn
  | _ -> Alcotest.fail "B's commit not released by the follower's ack");
  Alcotest.(check int) "nothing sent to A" sent_to_a (List.length a.sent);
  Alcotest.(check int) "only B counted committed" 1 (Core.stats w.core).Core.commits;
  Alcotest.(check int) "every slot returned" 0 (Core.parked w.core)

(* A follower that resubscribes at the journal's end — after catching up
   through the pull feed — already holds a parked window: its
   subscription offset is a durable position, and releases the window
   without waiting for the replication deadline. *)
let test_subscribe_releases_quorum () =
  let w =
    world
      ~config:{ Core.default_config with sync_replicas = 1; repl_deadline_ns = 60e9 } ()
  in
  let a = open_conn w in
  let na = txn w a ~course:1 in
  drain w;
  pump w Core.Idle;
  Alcotest.(check int) "the window is appended" 1 w.appends;
  Alcotest.(check bool) "its ack waits on the quorum" false (Hashtbl.mem w.answers na);
  let f = open_conn w in
  write f [ "(subscribe 0)", Feed ];
  drain w;
  match Hashtbl.find_opt w.answers na with
  | Some (Acked (_, warn)) -> Alcotest.(check bool) "released, not degraded" false warn
  | _ -> Alcotest.fail "the subscription did not release the window"

(* Two windows parked on the quorum, the second of whose appends
   rotates the journal: the rotation neither releases nor expires
   either wait, and one follower ack past both releases them clean. *)
let test_rotation_keeps_quorum_waits () =
  let w =
    world ~rotate_every:2
      ~config:{ Core.default_config with flush_window = 1; sync_replicas = 1;
                repl_deadline_ns = 60e9 } ()
  in
  let f = open_conn w in
  write f [ "(subscribe 0)", Feed ];
  drain w;
  let a = open_conn w and b = open_conn w in
  let na = txn w a ~course:1 in
  drain w;
  let nb = txn w b ~course:2 in
  drain w;
  Alcotest.(check int) "one append per window" 2 w.appends;
  Alcotest.(check int) "the second append rotated" 1 w.rotations;
  w.now <- w.now +. 1e6;
  tick w;
  Alcotest.(check bool) "both windows still wait on the quorum" false
    (Hashtbl.mem w.answers na || Hashtbl.mem w.answers nb);
  pump w (Core.Follower_ack (f.id, w.tail));
  List.iter
    (fun n ->
      match Hashtbl.find_opt w.answers n with
      | Some (Acked ([ _ ], warn)) ->
          Alcotest.(check bool) "released without a warning" false warn
      | _ -> Alcotest.failf "commit %d not released by the follower's ack" n)
    [ na; nb ]

let suite =
  [
    Alcotest.test_case "sim: invariants hold on 200 seeds" `Quick test_invariants;
    Alcotest.test_case "sim: the unfixed loop head blocks with a frame buffered"
      `Quick test_faithful_port_hangs;
    Alcotest.test_case "window: n sessions, one merged flush" `Quick
      test_window_batches;
    Alcotest.test_case "window: overlapping commit is the culprit" `Quick
      test_window_conflict_culprit;
    Alcotest.test_case "window: a session's same-tuple edits commit in order"
      `Quick test_window_same_tuple_edits;
    Alcotest.test_case "window: an overtaken session re-derives and commits"
      `Quick test_window_overtaken_session_rederives;
    Alcotest.test_case "window: the server commits as Session.commit does"
      `Quick test_window_parity_with_session_commit;
    Alcotest.test_case "window: disconnect while parked drops only that commit"
      `Quick test_disconnect_while_parked;
    Alcotest.test_case "limiter: full admission sheds with Busy" `Quick
      test_limiter_shed;
    Alcotest.test_case "quorum: disconnect while parked on a quorum wait" `Quick
      test_disconnect_on_quorum_wait;
    Alcotest.test_case "quorum: a subscription at the window's end releases it"
      `Quick test_subscribe_releases_quorum;
    Alcotest.test_case "quorum: windows parked across a rotation keep waiting"
      `Quick test_rotation_keeps_quorum_waits;
  ]
