(* One disk model for every durability test: a Penguin.Fsio.t that
   keeps what a kernel keeps and loses what a kernel may lose.

   - A write lands in the page cache: reads return it at once, and a
     crash keeps a seeded random prefix of a file's unsynced bytes.
   - A good fsync of a file makes its bytes durable. A failed fsync
     drops the pages it was to write: reads still return them, but no
     later fsync writes them back, so nothing from the first dropped
     byte on is ever fsynced again (Rebello et al., "Can Applications
     Recover from fsync Failures?", USENIX ATC 2020). Only a whole-file
     rewrite clears the loss.
   - A name — a create, a rename, a remove — is durable only after a
     good fsync of its directory. A crash brings back the names as of
     the last one.

   Faults come from one seeded schedule: transient, hard, torn and
   byte-corrupting failures, and crashes at a chosen operation, which
   raise [Crash] as a dying process would. [crash] then turns the files
   into what a power loss leaves; a test that skips it sees what a
   killed process leaves.

   The rules run over one of two storages: a plain in-memory table
   ([mem]), or the real files ([real]), which the model mirrors every
   change onto so that servers, sockets and other processes see them.
   A real-file model adopts a file it has not seen as durable, and must
   be the file's only writer from then on. *)
module E = Penguin.Error
module F = Penguin.Fsio

exception Crash

type op = [ `Read | `Write | `Sync | `Rename | `Remove ]

type kind =
  | Transient  (** fail transiently, touching nothing *)
  | Hard  (** fail non-transiently, touching nothing *)
  | Torn  (** a write lands a strict prefix, then fails transiently *)
  | Corrupt  (** a write lands whole with one byte flipped, then fails *)
  | Crash_at of [ `Before | `Torn | `After ]
      (** the process dies before the operation, part way through a
          write, or just after the operation *)

type schedule =
  | Rate of { rate : float; kinds : kind list; ops : op list }
      (** each [ops] operation fails with probability [rate], with a
          kind drawn from [kinds] *)
  | Nth of int * kind  (** the n-th write, fsync, rename or remove *)
  | Once of (op * string * kind) list
      (** each entry fires at the first [op] on its path, once *)

let never = Once []

type inode = { mutable data : string; mutable synced : int; mutable lost : bool }

type t = {
  real : bool;
  rng : Random.State.t;
  mutable schedule : schedule;
  mutable ops : int;  (** writes, fsyncs, renames and removes so far *)
  mutable faults : int;  (** faults injected so far *)
  names : (string, inode) Hashtbl.t;  (** what reads see *)
  durable : (string, inode) Hashtbl.t;  (** the names a crash keeps *)
  lock : Mutex.t;
}

let make ~real ?(seed = 0) ?(schedule = never) () =
  { real; rng = Random.State.make [| seed |]; schedule; ops = 0; faults = 0;
    names = Hashtbl.create 8; durable = Hashtbl.create 8; lock = Mutex.create () }

let mem = make ~real:false
let real = make ~real:true
(* [Nth] counts from here. *)
let set_schedule t s =
  Mutex.protect t.lock (fun () ->
      t.schedule <- s;
      t.ops <- 0)
let faults t = t.faults
let files t = Mutex.protect t.lock (fun () -> Hashtbl.fold (fun p _ l -> p :: l) t.names [])

let find t path =
  match Hashtbl.find_opt t.names path with
  | Some i -> Some i
  | None when t.real && Sys.file_exists path && not (Sys.is_directory path) -> (
      match F.default.F.read path with
      | Ok (Some data) ->
          let i = { data; synced = String.length data; lost = false } in
          Hashtbl.replace t.names path i;
          Hashtbl.replace t.durable path i;
          Some i
      | _ -> None)
  | None -> None

let is_dir t path =
  (t.real && Sys.file_exists path && Sys.is_directory path)
  || path = "."
  || Hashtbl.fold (fun p _ b -> b || Filename.dirname p = path) t.names false

(* --- the schedule ------------------------------------------------------- *)

let fault t op path =
  if op <> `Read then t.ops <- t.ops + 1;
  match t.schedule with
  | Rate { rate; kinds; ops } ->
      if List.mem op ops && Random.State.float t.rng 1. < rate then
        Some (List.nth kinds (Random.State.int t.rng (List.length kinds)))
      else None
  | Nth (n, kind) -> if op <> `Read && t.ops = n then Some kind else None
  | Once entries -> (
      match List.partition (fun (o, p, _) -> o = op && p = path) entries with
      | (_, _, kind) :: rest, others ->
          t.schedule <- Once (rest @ others);
          Some kind
      | [], _ -> None)

(* Run an operation under the schedule. [torn] is what a torn or
   corrupting fault leaves behind (nothing but for writes), and
   [on_error] what any failure does to the model. A file is adopted
   before the operation runs, never after it. *)
let guarded t op ~path ?(torn = ignore) ?(on_error = ignore) run =
  let fail kind =
    on_error ();
    t.faults <- t.faults + 1;
    let op =
      match op with
      | `Read -> E.Read | `Write -> E.Write | `Sync -> E.Sync | `Rename -> E.Rename | `Remove -> E.Remove
    in
    Error
      (E.io ~op ~path ~transient:(kind <> Hard)
         (match kind with
         | Hard -> "injected hard fault"
         | Torn -> "injected torn write"
         | Corrupt -> "injected corrupting write"
         | _ -> "injected transient fault"))
  in
  match fault t op path with
  | None ->
      let r = run () in
      if Result.is_error r then on_error ();
      r
  | Some (Crash_at `Before) -> raise Crash
  | Some (Crash_at `Torn) -> torn Torn; raise Crash
  | Some (Crash_at `After) -> ignore (run ()); raise Crash
  | Some ((Torn | Corrupt) as k) -> torn k; fail k
  | Some k -> fail k

let mirror t f = if t.real then f F.default else Ok ()

(* --- the primitives ----------------------------------------------------- *)

let read t path = Ok (Option.map (fun i -> i.data) (find t path))

let read_from t ~path ~off ~len =
  Ok
    (Option.map
       (fun i ->
         let n = String.length i.data in
         if off >= n then ""
         else String.sub i.data off (match len with None -> n - off | Some l -> min l (n - off)))
       (find t path))

let put t ~path ~append s =
  match find t path with
  | Some i when append -> i.data <- i.data ^ s
  | Some i ->
      i.data <- s;
      i.synced <- 0;
      i.lost <- false
  | None -> Hashtbl.replace t.names path { data = s; synced = 0; lost = false }

let write t ~path ~append s =
  ignore (find t path);
  let lay s =
    let r = mirror t (fun io -> io.F.write ~path ~append s) in
    if Result.is_ok r then put t ~path ~append s;
    r
  in
  let torn kind =
    let n = Random.State.int t.rng (max 1 (String.length s)) in
    if kind = Torn then ignore (lay (String.sub s 0 n))
    else if s <> "" then begin
      let b = Bytes.of_string s in
      Bytes.set b n (Char.chr (Char.code (Bytes.get b n) lxor 0xFF));
      ignore (lay (Bytes.to_string b))
    end
  in
  guarded t `Write ~path ~torn (fun () -> lay s)

let sync t path =
  let file = find t path in
  let on_error () =
    Option.iter (fun i -> if i.synced < String.length i.data then i.lost <- true) file
  in
  guarded t `Sync ~path ~on_error (fun () ->
      match file with
      | Some i ->
          if not i.lost then i.synced <- String.length i.data;
          Ok ()
      | None when is_dir t path ->
          let here p = Filename.dirname p = path in
          Hashtbl.filter_map_inplace
            (fun p i -> if here p && not (Hashtbl.mem t.names p) then None else Some i)
            t.durable;
          Hashtbl.iter (fun p i -> if here p then Hashtbl.replace t.durable p i) t.names;
          Ok ()
      | None -> Error (E.io ~op:E.Sync ~path "model: no such file"))

let rename t ~src ~dst =
  ignore (find t dst);
  guarded t `Rename ~path:dst (fun () ->
      match find t src with
      | None -> Error (E.io ~op:E.Rename ~path:src "model: no such file")
      | Some i ->
          let r = mirror t (fun io -> io.F.rename ~src ~dst) in
          if Result.is_ok r then begin
            Hashtbl.remove t.names src;
            Hashtbl.replace t.names dst i
          end;
          r)

let remove t path =
  guarded t `Remove ~path (fun () ->
      match find t path with
      | None -> Error (E.io ~op:E.Remove ~path "model: no such file")
      | Some _ ->
          let r = mirror t (fun io -> io.F.remove path) in
          if Result.is_ok r then Hashtbl.remove t.names path;
          r)

let io t =
  let locked f = Mutex.protect t.lock f in
  {
    F.read = (fun p -> locked (fun () -> read t p));
    read_from = (fun ~path ~off ~len -> locked (fun () -> read_from t ~path ~off ~len));
    write = (fun ~path ~append s -> locked (fun () -> write t ~path ~append s));
    sync = (fun p -> locked (fun () -> sync t p));
    rename = (fun ~src ~dst -> locked (fun () -> rename t ~src ~dst));
    remove = (fun p -> locked (fun () -> remove t p));
  }

(* --- what a crash leaves ------------------------------------------------ *)

(* A power loss: the durable names come back, each file holding its
   fsynced bytes and a seeded random prefix of the rest. A real-file
   model rewrites the files to match. *)
let crash t =
  Mutex.protect t.lock @@ fun () ->
  let seen = ref [] in
  Hashtbl.iter
    (fun _ i ->
      if not (List.memq i !seen) then begin
        seen := i :: !seen;
        let keep = i.synced + Random.State.int t.rng (String.length i.data - i.synced + 1) in
        i.data <- String.sub i.data 0 keep;
        i.synced <- keep;
        i.lost <- false
      end)
    t.durable;
  if t.real then
    Hashtbl.iter
      (fun p _ ->
        if (not (Hashtbl.mem t.durable p)) && Sys.file_exists p then Sys.remove p)
      t.names;
  Hashtbl.reset t.names;
  Hashtbl.iter
    (fun p i ->
      Hashtbl.replace t.names p i;
      if t.real then ignore (F.default.F.write ~path:p ~append:false i.data))
    t.durable

(* The files as a crash that keeps no unsynced byte leaves them, as an
   in-memory model with no faults; [t] is untouched. *)
let fsynced t =
  Mutex.protect t.lock @@ fun () ->
  let d = mem () in
  Hashtbl.iter
    (fun p i ->
      let data = String.sub i.data 0 i.synced in
      let i = { data; synced = i.synced; lost = false } in
      Hashtbl.replace d.names p i;
      Hashtbl.replace d.durable p i)
    t.durable;
  d

(* --- the model's own checks ---------------------------------------------- *)

open Test_util

let ok r = check_ok_e r
let get fs p = match ok (fs.F.read p) with Some s -> s | None -> "<none>"

(* A failed fsync drops the pages it was to write: reads still return
   them, a later good fsync does not write them back, and a crash loses
   them. A whole-file rewrite is durable again. *)
let test_lost_pages () =
  let d = mem () in
  let fs = io d in
  ok (fs.F.write ~path:"f" ~append:false "synced|");
  ok (fs.F.sync "f");
  ok (fs.F.sync ".");
  ok (fs.F.write ~path:"f" ~append:true "dropped|");
  set_schedule d (Once [ `Sync, "f", Hard ]);
  (match fs.F.sync "f" with
  | Error (E.Io { op = E.Sync; transient = false; _ }) -> ()
  | _ -> Alcotest.fail "the scheduled fsync fault must fire");
  Alcotest.(check string) "reads still return the dropped pages" "synced|dropped|" (get fs "f");
  ok (fs.F.write ~path:"f" ~append:true "later|");
  ok (fs.F.sync "f");
  Alcotest.(check string) "a later fsync writes nothing back" "synced|" (get (fsynced d |> io) "f");
  crash d;
  let after = get fs "f" in
  Alcotest.(check bool) (Fmt.str "the crash keeps a prefix of the unsynced bytes: %S" after) true
    (String.length after >= 7
    && String.sub "synced|dropped|later|" 0 (String.length after) = after);
  ok (fs.F.write ~path:"f" ~append:false "fresh");
  ok (fs.F.sync "f");
  Alcotest.(check string) "a rewrite clears the loss" "fresh" (get (fsynced d |> io) "f")

(* A rename, a create and a remove are durable only after a good fsync
   of their directory. *)
let test_rename_needs_dir_fsync () =
  let d = mem () in
  let fs = io d in
  let put p s = ok (fs.F.write ~path:p ~append:false s); ok (fs.F.sync p) in
  put "dir/a" "old";
  ok (fs.F.sync "dir");
  set_schedule d (Once [ `Sync, "dir", Hard ]);
  put "dir/tmp" "new";
  ok (fs.F.rename ~src:"dir/tmp" ~dst:"dir/a");
  put "dir/b" "created";
  Alcotest.(check string) "reads see the rename" "new" (get fs "dir/a");
  Alcotest.(check bool) "the failed directory fsync is reported" true
    (Result.is_error (fs.F.sync "dir"));
  let before = fsynced d |> io in
  Alcotest.(check string) "a failed directory fsync leaves the old name" "old" (get before "dir/a");
  Alcotest.(check string) "and no new one" "<none>" (get before "dir/b");
  ok (fs.F.sync "dir");
  let after = fsynced d |> io in
  Alcotest.(check string) "a good directory fsync makes the rename durable" "new" (get after "dir/a");
  ok (fs.F.remove "dir/b");
  crash d;
  Alcotest.(check string) "an unsynced remove comes back" "created" (get fs "dir/b")

(* A crash image keeps the fsynced bytes and only a prefix of the rest,
   and every prefix length turns up across seeds. *)
let test_prefix_only_crash_images () =
  let kept = Hashtbl.create 8 in
  for seed = 1 to 200 do
    let d = mem ~seed () in
    let fs = io d in
    ok (fs.F.write ~path:"j" ~append:false "head");
    ok (fs.F.sync "j");
    ok (fs.F.sync ".");
    ok (fs.F.write ~path:"j" ~append:true "tail");
    crash d;
    let s = get fs "j" in
    if String.length s < 4 || String.sub "headtail" 0 (String.length s) <> s then
      Alcotest.failf "seed %d: %S is not the fsynced bytes plus a prefix" seed s;
    Hashtbl.replace kept (String.length s) ()
  done;
  Alcotest.(check int) "every prefix of the unsynced bytes turns up" 5 (Hashtbl.length kept)

let suite =
  [
    Alcotest.test_case "a failed fsync loses its pages" `Quick test_lost_pages;
    Alcotest.test_case "a rename needs a directory fsync" `Quick test_rename_needs_dir_fsync;
    Alcotest.test_case "crash images keep prefixes only" `Quick test_prefix_only_crash_images;
  ]
