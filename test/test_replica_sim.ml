(* A seeded simulator for the follower's decision core
   (Penguin.Replica_core): three follower cores run against a model
   leader, each through a small driver of its own over the in-memory
   disk model (Test_disk) — no sockets, no real disk, no clock.

   The model leader's journal images are built from real commit frames
   on the bench fixture: commits, a rotation every few records (half of
   them compacting: the snapshot falls 1-5 records below the tail, and
   the new journal keeps those records after its header), torn
   tails (an append in flight), corrupt frames (checksum-valid garbage,
   which a follower quarantines until a rotation heals it), and one
   promotion: the most advanced follower's files are promoted and start
   a divergent epoch, and the deposed leader's own files rejoin as a
   follower in its place.

   The faults: fetch failures; push streams that drop, delay, duplicate
   and sever; torn and failing writes and failing file and directory
   fsyncs on a follower's own files, a failed fsync dropping its pages;
   and follower crashes that keep only the durable names, each with its
   fsynced bytes plus a random prefix of the rest, reopened with the
   real Recovery.open_store. A reopen that hits an injected I/O fault
   leaves the follower down, to retry.

   Every seed is checked against the invariants:

   1. a follower never acks a version its files would not reopen at:
      at every ack, the fsynced bytes hold it;
   2. a crashed follower's files reopen at no less than its last ack,
      in the state that some lineage at or past their epoch has at that
      version; and a live follower holds exactly its epoch's lineage
      state at its position, which at the leader's epoch never passes
      the leader's;
   3. a follower's reported epoch never goes backwards, crashes
      included;
   4. a follower's in-memory log holds at most one leader journal's
      records (the rotation threshold);
   5. once faults stop and the leader rotates, every follower converges
      to the leader: its version, epoch and state, and Following;
   6. promoting the most advanced follower (Replica.more_advanced over
      durable positions) loses no version that K of the N followers
      acked.

   Out of scope: the leader side. The model leader is not
   Penguin.Server_core; test_server_sim.ml checks that one. *)
open Relational
open Test_util

module Core = Penguin.Replica_core
module J = Penguin.Journal
module R = Penguin.Replica
module W = Penguin.Workspace
module E = Penguin.Error
module Recovery = Penguin.Recovery

let courses = 4

let ws0 =
  lazy
    (let dir = temp_dir "replica-sim" in
     Test_server.make_bench_store dir courses;
     let ws, _ = check_ok_e (Recovery.open_store (Test_recovery.store_in dir)) in
     rm_rf dir;
     ws)

(* The commit at version [v] of epoch [epoch]: one grade set to a value
   naming both, so two lineages differ wherever they diverge. *)
let commit_entry (ws : W.t) ~epoch v =
  let i = 1 + (v mod courses) in
  let key = [ Value.Str (Fmt.str "BENCH%03d" i); Value.Int (2000 + i) ] in
  let old = Option.get (Relation.lookup (Database.relation_exn ws.db "GRADES") key) in
  let now = Tuple.set old "grade" (Value.Str (Fmt.str "e%dv%d" epoch v)) in
  let d =
    Delta.record Delta.empty ~rel:"GRADES" ~key ~old_image:(Some old)
      ~new_image:(Some now)
  in
  { Penguin.Commit_log.version = v; change = Penguin.Commit_log.Delta d; kind = "update" }

(* --- the model leader ---------------------------------------------------- *)

type stream = { frames : string Queue.t; mutable closed : bool }

type follower = {
  id : int;
  disk : Test_disk.t;
  io : Penguin.Fsio.t;
  mutable st : Core.state option;  (** [None] while down *)
  mutable stream : stream option;
  mutable acked : int;  (** the highest version it acked *)
  mutable epoch_seen : int;
}

type world = {
  rng : Random.State.t;
  rotate_every : int;
  k : int;  (** the quorum of invariant 6 *)
  mutable faults : bool;
  mutable epoch : int;
  mutable ws : W.t;  (** the leader's state *)
  mutable base : int;
  mutable doc : string;  (** its store document, at [base] *)
  mutable doc_ws : W.t;  (** the same, loaded *)
  mutable real : string list;  (** its journal's frames, newest first *)
  mutable served : string list;  (** the same, as followers read them *)
  mutable torn : string;  (** an append in flight *)
  mutable image : string;  (** the served journal's bytes *)
  lineage : (int * int, W.t) Hashtbl.t;  (** (epoch, version) it wrote *)
  mutable forks : (int * int) list;  (** epoch, version it began after *)
  mutable followers : follower list;
  mutable violations : string list;
  mutable promoted : bool;
  stats : (string, int) Hashtbl.t;
  mutable trace : string list;  (** what happened, newest first *)
}

let target = "follower.pgn"
let jpath = J.journal_path target
let note w fmt = Fmt.kstr (fun m -> w.trace <- m :: w.trace) fmt
let violation w fmt =
  Fmt.kstr (fun m -> note w "VIOLATION %s" m; w.violations <- m :: w.violations) fmt
let chance w p = Random.State.float w.rng 1. < p
let count w what = Hashtbl.replace w.stats what (1 + Option.value ~default:0 (Hashtbl.find_opt w.stats what))
let tail w = W.version w.ws
let frame_bytes frames = String.concat "" (List.rev_map J.frame frames)

let rec state_at w ~epoch v =
  match Hashtbl.find_opt w.lineage (epoch, v) with
  | Some ws -> Some ws
  | None -> (
      match List.assoc_opt epoch w.forks with
      | Some p when v <= p -> state_at w ~epoch:(epoch - 1) v
      | _ -> None)

(* Epoch 0's states are the same on every seed: render each once. A
   later epoch's document records it, as a real leader's does. *)
let saved = Hashtbl.create 64

let save ws ~epoch =
  if epoch > 0 then Penguin.Store.save ~epoch ws
  else
    match Hashtbl.find_opt saved (W.version ws) with
    | Some doc -> doc
    | None ->
        let doc = Penguin.Store.save ws in
        Hashtbl.replace saved (W.version ws) doc;
        doc

let republish w = w.image <- frame_bytes w.served ^ w.torn

(* Push every follower's stream the frames a relay would: the new
   record, or a rotation's new journal from its header. *)
let relay w frame =
  List.iter
    (fun f -> Option.iter (fun s -> if not s.closed then Queue.push frame s.frames) f.stream)
    w.followers

(* A rotation that snapshots [keep] records below the tail compacts the
   journal to a header and those records, as the server does when
   commits land while its snapshot renders. As there, the new base is
   past the old one, and the kept frames are the real ones: a corrupt
   served frame is healed either way. *)
let rotate ?(keep = 0) w =
  count w "rotations";
  let keep = max 0 (min keep (List.length w.real - 2)) in
  if keep > 0 then count w "compactions";
  w.base <- tail w - keep;
  note w "leader rotates at v%d, keeping %d record(s)" w.base keep;
  let base_ws = Option.get (state_at w ~epoch:w.epoch w.base) in
  w.doc_ws <- { base_ws with log = Penguin.Commit_log.of_version w.base };
  w.doc <- save w.doc_ws ~epoch:w.epoch;
  let h = J.header_payload ~base:w.base ~epoch:w.epoch in
  let kept = List.filteri (fun i _ -> i < keep) w.real in
  w.real <- kept @ [ h ];
  w.served <- w.real;
  w.torn <- "";
  republish w;
  List.iter (relay w) (h :: List.rev kept)

let commit w =
  count w "commits";
  let e = commit_entry w.ws ~epoch:w.epoch (tail w + 1) in
  w.ws <- check_ok_e (Recovery.apply_entry w.ws e);
  Hashtbl.replace w.lineage (w.epoch, tail w) w.ws;
  let payload = J.record_payload [ e ] in
  let served =
    if w.faults && chance w 0.05 then (count w "corrupt frames"; "(never a record)")
    else payload
  in
  note w "leader commits v%d at epoch %d%s" (tail w) w.epoch
    (if served == payload then "" else " (served corrupt)");
  w.real <- payload :: w.real;
  w.served <- served :: w.served;
  w.torn <-
    (if w.faults && chance w 0.2 then
       let f = J.frame (J.record_payload [ commit_entry w.ws ~epoch:w.epoch (tail w + 1) ]) in
       String.sub f 0 (Random.State.int w.rng (String.length f))
     else "");
  republish w;
  relay w served;
  if List.length w.real > w.rotate_every then
    rotate w ~keep:(if chance w 0.5 then 1 + Random.State.int w.rng 5 else 0)

(* --- a follower's driver ----------------------------------------------------- *)

let feed_fault w what =
  if w.faults && chance w 0.1 then
    Some (Core.Fetch_failed (E.io ~op:E.Read ~path:"sim-leader" ~transient:true what))
  else None

let durable_version f =
  match R.durable_position ~io:(Test_disk.io (Test_disk.fsynced f.disk)) target with
  | Ok d -> d.R.d_version
  | Error _ -> -1

let pp_action ppf = function
  | Core.Fetch_journal off -> Fmt.pf ppf "fetch journal %d" off
  | Fetch_head -> Fmt.pf ppf "fetch head"
  | Fetch_snapshot -> Fmt.pf ppf "fetch snapshot"
  | Append s -> Fmt.pf ppf "append %d" (String.length s)
  | Truncate n -> Fmt.pf ppf "truncate %d" n
  | Fsync -> Fmt.pf ppf "fsync"
  | Fold (e, ws) -> Fmt.pf ppf "fold v%d epoch %d" (W.version ws) e
  | Install (_, b, e) -> Fmt.pf ppf "install base %d epoch %d" b e
  | Ack v -> Fmt.pf ppf "ack v%d" v
  | Close_stream -> Fmt.pf ppf "close stream"
  | Fail _ -> Fmt.pf ppf "fail"

let exec w f a =
  note w "  f%d: %a" f.id pp_action a;
  match a with
  | Core.Fetch_journal off ->
      Some
        (match feed_fault w "journal" with
        | Some ev -> ev
        | None ->
            let n = String.length w.image in
            let bytes = if off >= n then "" else String.sub w.image off (n - off) in
            let frames, _, _ = J.decode_frames ~off0:off bytes in
            Core.Frames { pushed = false; frames = List.map snd frames })
  | Fetch_head ->
      Some
        (match feed_fault w "head" with
        | Some ev -> ev
        | None ->
            let n = min 1024 (String.length w.image) in
            Core.Head (R.header_of_bytes (String.sub w.image 0 n)))
  | Fetch_snapshot ->
      Some
        (match feed_fault w "snapshot" with
        | Some ev -> ev
        | None -> Core.Snapshot (w.doc, w.doc_ws))
  | Append frame -> Some (Core.Wrote (f.io.Penguin.Fsio.write ~path:jpath ~append:true frame))
  | Truncate n -> Some (Core.Wrote (J.truncate_torn (J.create ~io:f.io jpath) ~clean_bytes:n))
  | Fsync -> Some (Core.Wrote (f.io.Penguin.Fsio.sync jpath))
  | Fold (epoch, ws) -> Some (Core.Wrote (Recovery.snapshot ~io:f.io ~epoch ~store:target ws))
  | Install (doc, base, epoch) ->
      count w "resyncs";
      Some (Core.Wrote (Recovery.install ~io:f.io ~epoch ~base ~store:target doc))
  | Ack v ->
      count w "acks";
      (* Invariant 1. *)
      let d = durable_version f in
      if d < v then violation w "invariant 1: f%d acked v%d, its fsynced files hold v%d" f.id v d;
      f.acked <- max f.acked v;
      None
  | Close_stream ->
      f.stream <- None;
      None
  | Fail _ -> None

(* Invariants 2 (live), 3 and 4 after every round. *)
let check_live w f st =
  let v = W.version (Core.workspace st) and e = Core.epoch st in
  if e < f.epoch_seen then violation w "invariant 3: f%d went from epoch %d to %d" f.id f.epoch_seen e;
  f.epoch_seen <- max e f.epoch_seen;
  (match state_at w ~epoch:e v with
  | Some ws when Database.equal ws.db (Core.workspace st).db -> ()
  | _ -> violation w "invariant 2: f%d at (epoch %d, v%d) holds no lineage state" f.id e v);
  if e = w.epoch && v > tail w then
    violation w "invariant 2: f%d at v%d passed the leader's v%d" f.id v (tail w);
  let held = Penguin.Commit_log.length (Core.workspace st).log in
  if held > w.rotate_every then
    violation w "invariant 4: f%d holds %d log entries, past the threshold %d" f.id held
      w.rotate_every

(* Step the core until it waits for nothing; true if the round failed. A
   failed push round loses its stream, as the driver closes it. *)
let drive w f step =
  let failed = ref false in
  let rec go (st, actions) =
    f.st <- Some st;
    List.iter
      (function
        | Core.Fail _ -> failed := true
        | a -> Option.iter (fun ev -> go (Core.step (Option.get f.st) ev)) (exec w f a))
      actions
  in
  go step;
  Option.iter (check_live w f) f.st;
  if !failed then f.stream <- None;
  !failed

let run w f ev =
  note w "f%d: %s" f.id
    (match ev with
    | Core.Poll -> "poll"
    | Frames { frames; _ } -> Fmt.str "%d pushed frame(s)" (List.length frames)
    | Stream_opened _ -> "subscribed"
    | Stream_lost _ -> "stream lost"
    | _ -> "event");
  match f.st with Some st -> drive w f (Core.step st ev) | None -> true

(* Bring a follower up from its files, as Replica.create does; a crash
   is checked against invariants 2 and 3 on the way. *)
let open_follower w f =
  let step =
    if not (List.mem target (Test_disk.files f.disk)) then
      Some (Core.bootstrap ~refetch_limit:2 ~label:"sim" ~doc:w.doc w.doc_ws)
    else
      let injected = Test_disk.faults f.disk in
      match Recovery.open_store ~io:f.io ~repair:true target with
      | Error (E.Io _ as e) when Test_disk.faults f.disk > injected ->
          (* An injected fault: the follower stays down and retries. *)
          note w "f%d stays down: %s" f.id (E.to_string e);
          None
      | Error e ->
          violation w "invariant 2: f%d's files do not reopen: %s" f.id (E.to_string e);
          None
      | Ok (ws, report) ->
          let v = W.version ws and e = report.Recovery.epoch in
          note w "f%d reopens at v%d epoch %d" f.id v e;
          if v < f.acked then
            violation w "invariant 2: f%d reopened at v%d below its ack v%d" f.id v f.acked;
          if e < f.epoch_seen then
            violation w "invariant 3: f%d reopened at epoch %d after epoch %d" f.id e f.epoch_seen;
          let lineage e' =
            match state_at w ~epoch:e' v with
            | Some s -> Database.equal s.db ws.db
            | None -> false
          in
          if not (List.exists lineage (List.init (w.epoch - e + 1) (fun i -> e + i))) then
            violation w "invariant 2: f%d reopened at (epoch %d, v%d) in no lineage's state"
              f.id e v;
          f.epoch_seen <- max f.epoch_seen e;
          Option.map
            (Core.resume ~refetch_limit:2 ~label:"sim" ws report)
            (check_ok_e (J.replay (J.create ~io:f.io jpath)))
  in
  match step with
  | None -> ()
  | Some step -> if drive w f step then f.st <- None

(* A follower's own files fail a tenth of their writes and fsyncs,
   directory fsyncs included, mostly torn, while the world has faults. *)
let disk_faults w =
  if w.faults then
    Test_disk.Rate
      { rate = 0.1; kinds = Test_disk.[ Torn; Torn; Torn; Torn; Hard ]; ops = [ `Write; `Sync ] }
  else Test_disk.never

let make_follower w id disk =
  Test_disk.set_schedule disk (disk_faults w);
  let f =
    { id; disk; io = Test_disk.io disk; st = None; stream = None; acked = -1; epoch_seen = 0 }
  in
  open_follower w f;
  f

let crash w f =
  count w "crashes";
  Test_disk.crash f.disk;
  f.st <- None;
  f.stream <- None;
  Test_disk.set_schedule f.disk Test_disk.never;
  open_follower w f;
  Test_disk.set_schedule f.disk (disk_faults w)

(* A subscription, as the listener answers one: refused unless the
   follower's offset is a frame boundary of the leader's journal. *)
let subscribe w f st =
  let frames, clean_end, _ = J.decode_frames w.image in
  let off = Core.offset st in
  if off = 0 || off = clean_end || List.mem_assoc off frames then begin
    count w "subscriptions";
    let s = { frames = Queue.create (); closed = false } in
    List.iter (fun (o, p) -> if o >= off then Queue.push p s.frames) frames;
    f.stream <- Some s;
    ignore (run w f (Core.Stream_opened (w.base, w.epoch)))
  end

(* Hand the follower what its link delivers: a few frames, now and then
   one dropped or duplicated, or the link severed. A dropped record is a
   version gap the follower must refuse. A header carries no sequence,
   so a follower could not tell a lost one from a journal that never
   rotated; a byte stream that loses a frame does not go on, so a
   dropped header severs the link after the frames before it. *)
let is_header fr = Result.is_ok (J.header_of_payload fr)

let sever w f s =
  if not s.closed then count w "severs";
  f.stream <- None;
  ignore (run w f (Core.Stream_lost "severed"))

let deliver w f s =
  if s.closed || (w.faults && chance w 0.05) then sever w f s
  else begin
    let rec take n acc =
      if n = 0 || Queue.is_empty s.frames then List.rev acc, false
      else
        let fr = Queue.pop s.frames in
        if w.faults && chance w 0.05 then
          if is_header fr then (count w "header drops"; List.rev acc, true)
          else (count w "drops"; take (n - 1) acc)
        else if w.faults && chance w 0.05 then (count w "duplicates"; take (n - 1) (fr :: fr :: acc))
        else take (n - 1) (fr :: acc)
    in
    let frames, lost = take (1 + Random.State.int w.rng 4) [] in
    if frames <> [] then ignore (run w f (Core.Frames { pushed = true; frames }));
    if lost then sever w f s
  end

let rec pull_until_idle w f n =
  match f.st with
  | Some _ when n > 0 ->
      let failed = run w f Core.Poll in
      let p = Core.progress (Option.get f.st) in
      if failed || p.Core.records > 0 || p.Core.rotated || p.Core.resynced then
        pull_until_idle w f (n - 1)
  | None when n > 0 ->
      open_follower w f;
      pull_until_idle w f (n - 1)
  | _ -> ()

(* Promote the most advanced follower by the durable positions failover
   tooling reads; its files become the leader of a new epoch, and the
   deposed leader's own files rejoin in its place. *)
let promote w =
  count w "promotions";
  w.promoted <- true;
  let position f =
    match R.durable_position ~io:f.io target with
    | Ok d -> Some (f, d)
    | Error _ -> None
  in
  match List.filter_map position w.followers with
  | [] -> ()
  | first :: rest ->
      let best, _ =
        List.fold_left (fun (bf, bd) (f, d) -> if R.more_advanced d bd then (f, d) else (bf, bd))
          first rest
      in
      Test_disk.set_schedule best.disk Test_disk.never;
      let io = best.io in
      let ws, report = check_ok_e (Recovery.open_store ~io ~repair:true target) in
      let p = W.version ws in
      note w "promote f%d at v%d" best.id p;
      (* Invariant 6. *)
      let acks = List.sort (fun a b -> compare b a) (List.map (fun f -> f.acked) w.followers) in
      let quorum = List.nth acks (w.k - 1) in
      if quorum > p then
        violation w "invariant 6: v%d was acked by %d followers; the promoted store holds v%d"
          quorum w.k p;
      (match state_at w ~epoch:w.epoch p with
      | Some s when Database.equal s.db ws.db -> ()
      | _ -> violation w "promotion: the promoted store is not the lineage's v%d" p);
      let epoch = report.Recovery.epoch + 1 in
      check_ok_e (Recovery.snapshot ~io ~epoch ~store:target ws);
      let deposed = Test_disk.mem ~seed:(Random.State.bits w.rng) () in
      let put path data =
        let dio = Test_disk.io deposed in
        check_ok_e (dio.Penguin.Fsio.write ~path ~append:false data);
        check_ok_e (dio.Penguin.Fsio.sync path);
        check_ok_e (dio.Penguin.Fsio.sync ".")
      in
      put target w.doc;
      put jpath (frame_bytes w.real);
      List.iter (fun f -> Option.iter (fun s -> s.closed <- true) f.stream) w.followers;
      w.epoch <- epoch;
      w.forks <- (epoch, p) :: w.forks;
      w.ws <- ws;
      w.base <- p;
      w.doc <- Option.get (check_ok_e (io.Penguin.Fsio.read target));
      w.doc_ws <- { ws with log = Penguin.Commit_log.of_version p };
      w.real <- [ J.header_payload ~base:p ~epoch ];
      w.served <- w.real;
      w.torn <- "";
      republish w;
      w.followers <-
        List.map
          (fun f -> if f == best then make_follower w f.id deposed else f)
          w.followers

(* --- the random run ------------------------------------------------------------ *)

let world seed =
  let rng = Random.State.make [| seed |] in
  let ws = Lazy.force ws0 in
  let w =
    { rng; rotate_every = 4 + Random.State.int rng 6; k = 1 + Random.State.int rng 2;
      faults = false; epoch = 0; ws; base = W.version ws; doc = ""; doc_ws = ws;
      real = []; served = []; torn = ""; image = ""; lineage = Hashtbl.create 64;
      forks = []; followers = []; violations = []; promoted = false;
      stats = Hashtbl.create 16; trace = [] }
  in
  Hashtbl.replace w.lineage (0, W.version ws) ws;
  rotate w;
  w.followers <-
    List.init 3 (fun id -> make_follower w id (Test_disk.mem ~seed:((seed * 3) + id) ()));
  w

let run_seed seed =
  let w = world seed in
  w.faults <- true;
  List.iter (fun f -> Test_disk.set_schedule f.disk (disk_faults w)) w.followers;
  for _ = 1 to 50 do
    let f = List.nth w.followers (Random.State.int w.rng 3) in
    match Random.State.int w.rng 20, f.st, f.stream with
    | (0 | 1 | 2 | 3 | 4 | 5), _, _ -> commit w
    | 6, _, _ when (not w.promoted) && tail w >= 4 && chance w 0.3 -> promote w
    | 7, Some _, _ -> crash w f
    | _, None, _ -> open_follower w f
    | (8 | 9 | 10 | 11), Some _, _ -> ignore (run w f Core.Poll)
    | (12 | 13), Some st, None -> subscribe w f st
    | _, Some _, Some s -> deliver w f s
    | _, Some _, None -> ignore (run w f Core.Poll)
  done;
  (* Invariant 5: the faults stop, the leader commits, rotates past any
     corrupt frame and commits again, and everyone catches up. *)
  w.faults <- false;
  List.iter
    (fun f ->
      Test_disk.set_schedule f.disk Test_disk.never;
      f.stream <- None)
    w.followers;
  commit w;
  rotate w;
  commit w;
  commit w;
  List.iter (fun f -> pull_until_idle w f 20) w.followers;
  List.iter
    (fun f ->
      match f.st with
      | None -> violation w "invariant 5: f%d is down" f.id
      | Some st ->
          let ok =
            W.version (Core.workspace st) = tail w
            && Core.epoch st = w.epoch
            && Core.status st = Core.Following
            && Database.equal (Core.workspace st).db w.ws.db
          in
          if not ok then
            violation w "invariant 5: f%d at (epoch %d, v%d, %s), the leader at (epoch %d, v%d)"
              f.id (Core.epoch st) (W.version (Core.workspace st))
              (R.status_label (Core.status st)) w.epoch (tail w))
    w.followers;
  w

(* @replica-suite (PENGUIN_REPLICA_SWEEP=full) runs the long sweep. *)
let seeds =
  let n = if Sys.getenv_opt "PENGUIN_REPLICA_SWEEP" = Some "full" then 4000 else 200 in
  List.init n (fun i -> i + 1)

let test_invariants () =
  let totals = Hashtbl.create 16 in
  List.iter
    (fun seed ->
      let w = run_seed seed in
      (match List.rev w.violations with
      | [] -> ()
      | v :: _ as all ->
          (* What led there, for the log: the seed's last steps. *)
          List.iter print_endline (List.rev (List.filteri (fun i _ -> i < 60) w.trace));
          Alcotest.failf "seed %d: %s (%d violation(s))" seed v (List.length all));
      Hashtbl.iter
        (fun k n -> Hashtbl.replace totals k (n + Option.value ~default:0 (Hashtbl.find_opt totals k)))
        w.stats)
    seeds;
  let total k = Option.value ~default:0 (Hashtbl.find_opt totals k) in
  Fmt.pr "%d seeds:%a@." (List.length seeds)
    Fmt.(list ~sep:nop (fun ppf (k, n) -> pf ppf " %d %s," n k))
    (List.sort compare (Hashtbl.fold (fun k n l -> (k, n) :: l) totals []));
  List.iter
    (fun k -> Alcotest.(check bool) ("the seeds exercised " ^ k) true (total k > 0))
    [ "resyncs"; "crashes"; "promotions"; "corrupt frames"; "drops"; "header drops";
      "duplicates"; "severs"; "acks"; "rotations"; "compactions" ]

let suite =
  [ Alcotest.test_case
      (Fmt.str "sim: follower invariants hold on %d seeds" (List.length seeds))
      `Quick test_invariants ]
