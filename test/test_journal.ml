(* The durable commit journal: framing, checksums, torn-tail
   truncation, rotation. Works on real files in a scratch directory. *)
open Relational
open Test_util

(* Journal/Fsio results carry the typed taxonomy; shadow the string
   helpers with the typed ones for this suite. *)
let check_ok r = check_ok_e r
let check_err_contains ~sub r = check_err_contains_e ~sub r
let check_appended r = ignore (check_ok r : int)

let entry version kind change = { Penguin.Commit_log.version; kind; change }

let delta_entry version =
  let before = tuple [ "course_id", vs "CS345"; "pid", vi 2; "grade", vs "B+" ] in
  let after = Tuple.set before "grade" (vs "A-") in
  let d = Delta.empty in
  let d = Delta.record d ~rel:"GRADES" ~key:[ vs "CS345"; vi 2 ] ~old_image:(Some before) ~new_image:(Some after) in
  let d = Delta.add d ~rel:"COURSES" ~key:[ vs "EE280" ] (tuple [ "course_id", vs "EE280"; "units", vi 3 ]) in
  let d =
    Delta.remove d ~rel:"PEOPLE" ~key:[ vi 9 ] (tuple [ "pid", vi 9; "name", vs "gone" ])
  in
  entry version "replace on omega" (Penguin.Commit_log.Delta d)

let barrier_entry version = entry version "sql script" (Penguin.Commit_log.Barrier "sql script")

let entry_equal (a : Penguin.Commit_log.entry) (b : Penguin.Commit_log.entry) =
  a.Penguin.Commit_log.version = b.Penguin.Commit_log.version
  && a.Penguin.Commit_log.kind = b.Penguin.Commit_log.kind
  &&
  match a.Penguin.Commit_log.change, b.Penguin.Commit_log.change with
  | Penguin.Commit_log.Delta x, Penguin.Commit_log.Delta y -> Delta.equal x y
  | Penguin.Commit_log.Barrier x, Penguin.Commit_log.Barrier y -> x = y
  | _ -> false

let journal_in dir = Penguin.Journal.create (Filename.concat dir "store.pgn.journal")

let read_journal t =
  match Penguin.Fsio.default.Penguin.Fsio.read (Penguin.Journal.path t) with
  | Ok (Some s) -> s
  | Ok None -> Alcotest.fail "journal file missing"
  | Error e -> Alcotest.fail (Penguin.Error.to_string e)

let write_journal t s =
  check_ok (Penguin.Fsio.default.Penguin.Fsio.write ~path:(Penguin.Journal.path t) ~append:false s)

let test_crc32_vector () =
  (* The canonical CRC-32 check value: crc32("123456789") = 0xCBF43926. *)
  Alcotest.(check int32) "check value" 0xCBF43926l
    (Penguin.Crc32.digest "123456789");
  Alcotest.(check int32) "incremental agrees" (Penguin.Crc32.digest "123456789")
    (Penguin.Crc32.update (Penguin.Crc32.digest "12345") "6789")

(* CRC-32 one bit at a time, in boxed [Int32] arithmetic: no table, so
   it shares nothing with the implementation under test. *)
let crc32_bitwise s =
  let crc = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      crc := Int32.logxor !crc (Int32.of_int (Char.code ch));
      for _ = 0 to 7 do
        crc :=
          if Int32.logand !crc 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !crc 1)
          else Int32.shift_right_logical !crc 1
      done)
    s;
  Int32.logxor !crc 0xFFFFFFFFl

let prop_crc32_reference =
  QCheck.Test.make ~name:"crc32 = bitwise reference, update = digest of concat"
    ~count:300
    QCheck.(pair (string_of_size (Gen.int_bound 300)) (string_of_size (Gen.int_bound 300)))
    (fun (a, b) ->
      Int32.equal (Penguin.Crc32.digest a) (crc32_bitwise a)
      && Int32.equal
           (Penguin.Crc32.update (Penguin.Crc32.digest a) b)
           (Penguin.Crc32.digest (a ^ b)))

let test_initialize_replay () =
  let dir = temp_dir "journal" in
  let t = journal_in dir in
  Alcotest.(check bool) "absent journal replays to None" true
    (check_ok (Penguin.Journal.replay t) = None);
  check_ok (Penguin.Journal.initialize t ~base:7);
  (match check_ok (Penguin.Journal.replay t) with
  | Some r ->
      Alcotest.(check int) "base" 7 r.Penguin.Journal.base;
      Alcotest.(check int) "no entries" 0 (List.length r.Penguin.Journal.entries);
      Alcotest.(check int) "no torn bytes" 0 r.Penguin.Journal.torn_bytes
  | None -> Alcotest.fail "journal should exist");
  rm_rf dir

let test_append_replay_roundtrip () =
  let dir = temp_dir "journal" in
  let t = journal_in dir in
  check_ok (Penguin.Journal.initialize t ~base:0);
  (* Two batches: a two-entry commit and a barrier. *)
  check_appended (Penguin.Journal.append t [ delta_entry 1; delta_entry 2 ]);
  check_appended (Penguin.Journal.append t ~sync:false [ barrier_entry 3 ]);
  (match check_ok (Penguin.Journal.replay t) with
  | None -> Alcotest.fail "journal should exist"
  | Some r ->
      Alcotest.(check int) "records" 2 r.Penguin.Journal.records;
      Alcotest.(check int) "entries flattened" 3 (List.length r.Penguin.Journal.entries);
      Alcotest.(check int) "clean" 0 r.Penguin.Journal.torn_bytes;
      List.iter2
        (fun a b ->
          Alcotest.(check bool)
            (Fmt.str "entry v%d roundtrips" a.Penguin.Commit_log.version)
            true (entry_equal a b))
        [ delta_entry 1; delta_entry 2; barrier_entry 3 ]
        r.Penguin.Journal.entries);
  (* Appending the empty batch writes nothing. *)
  let before = read_journal t in
  check_appended (Penguin.Journal.append t []);
  Alcotest.(check int) "empty append is a no-op" (String.length before)
    (String.length (read_journal t));
  rm_rf dir

let test_torn_tail_truncated () =
  let dir = temp_dir "journal" in
  let t = journal_in dir in
  check_ok (Penguin.Journal.initialize t ~base:0);
  check_appended (Penguin.Journal.append t [ delta_entry 1 ]);
  let clean = read_journal t in
  check_appended (Penguin.Journal.append t [ delta_entry 2 ]);
  let full = read_journal t in
  (* Cut the second record short at every possible point: the first
     batch must survive untouched, the torn tail must be reported. *)
  for cut = String.length clean + 1 to String.length full - 1 do
    write_journal t (String.sub full 0 cut);
    match check_ok (Penguin.Journal.replay t) with
    | None -> Alcotest.fail "journal should exist"
    | Some r ->
        Alcotest.(check int)
          (Fmt.str "cut at %d: first batch kept" cut)
          1
          (List.length r.Penguin.Journal.entries);
        Alcotest.(check bool) "torn tail reported" true (r.Penguin.Journal.torn_bytes > 0);
        Alcotest.(check int) "clean prefix is the first batch" (String.length clean)
          r.Penguin.Journal.clean_bytes
  done;
  (* Repair, then append again: the journal is whole. *)
  write_journal t (String.sub full 0 (String.length full - 3));
  (match check_ok (Penguin.Journal.replay t) with
  | Some r -> check_ok (Penguin.Journal.truncate_torn t ~clean_bytes:r.Penguin.Journal.clean_bytes)
  | None -> Alcotest.fail "journal should exist");
  check_appended (Penguin.Journal.append t [ delta_entry 2 ]);
  (match check_ok (Penguin.Journal.replay t) with
  | Some r ->
      Alcotest.(check int) "clean after repair + append" 0 r.Penguin.Journal.torn_bytes;
      Alcotest.(check int) "both entries" 2 (List.length r.Penguin.Journal.entries)
  | None -> Alcotest.fail "journal should exist");
  rm_rf dir

let test_checksum_catches_corruption () =
  let dir = temp_dir "journal" in
  let t = journal_in dir in
  check_ok (Penguin.Journal.initialize t ~base:0);
  check_appended (Penguin.Journal.append t [ delta_entry 1 ]);
  let clean = read_journal t in
  check_appended (Penguin.Journal.append t [ delta_entry 2 ]);
  let full = read_journal t in
  (* Flip one byte inside the second record's payload: its checksum must
     fail and the record (and everything after) be discarded. *)
  let pos = String.length clean + 10 in
  let b = Bytes.of_string full in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  write_journal t (Bytes.to_string b);
  (match check_ok (Penguin.Journal.replay t) with
  | Some r ->
      Alcotest.(check int) "only the intact batch" 1
        (List.length r.Penguin.Journal.entries);
      Alcotest.(check bool) "corruption reported as torn" true
        (r.Penguin.Journal.torn_bytes > 0)
  | None -> Alcotest.fail "journal should exist");
  (* A torn header is unrecoverable garbage, not a valid empty journal. *)
  write_journal t (String.sub full 0 3);
  check_err_contains ~sub:"header" (Penguin.Journal.replay t);
  rm_rf dir

let test_rotate () =
  let dir = temp_dir "journal" in
  let t = journal_in dir in
  let snapshot_path = Filename.concat dir "store.pgn" in
  check_ok (Penguin.Journal.initialize t ~base:0);
  check_appended (Penguin.Journal.append t [ delta_entry 1; delta_entry 2 ]);
  check_ok
    (Penguin.Journal.rotate t ~snapshot_path ~snapshot:"snapshot-at-v2\n" ~base:2);
  (match Penguin.Fsio.default.Penguin.Fsio.read snapshot_path with
  | Ok (Some s) -> Alcotest.(check string) "snapshot written" "snapshot-at-v2\n" s
  | _ -> Alcotest.fail "snapshot missing");
  (match check_ok (Penguin.Journal.replay t) with
  | Some r ->
      Alcotest.(check int) "journal reset to new base" 2 r.Penguin.Journal.base;
      Alcotest.(check int) "no entries" 0 (List.length r.Penguin.Journal.entries)
  | None -> Alcotest.fail "journal should exist");
  rm_rf dir

(* --- the record reader against the tree reader ---------------------------- *)

(* Commit records of add, del and upd changes and barriers, with names and
   strings that need quoting, printed flat (as the writer does) or in the
   wrapped layout, edited and cut as the snapshot property does. *)
let record_case_gen =
  let open QCheck.Gen in
  let char =
    frequency
      [ 8, char_range 'a' 'z'; 1, oneofl [ ' '; '('; ')'; '"'; '\\'; '\n'; ';' ] ]
  in
  let str = string_size ~gen:char (int_bound 8) in
  let value =
    oneof
      [ return Value.Null; map (fun i -> Value.Int i) (int_range (-1000) 1000);
        map (fun f -> Value.Float f) (oneofl [ 0.; -2.5; 1e-7; 3.25 ]);
        map (fun s -> Value.Str s) str; map (fun b -> Value.Bool b) bool ]
  in
  let row = map Tuple.make (list_size (int_range 1 3) (pair str value)) in
  let key = list_size (int_range 1 2) value in
  let change =
    oneof
      [ map2 (fun k t -> k, Delta.Added t) key row;
        map2 (fun k t -> k, Delta.Removed t) key row;
        map3 (fun k before after -> k, Delta.Updated { before; after }) key row row ]
  in
  let delta = map Delta.of_bindings (list_size (int_bound 2) (pair str (list_size (int_range 1 3) change))) in
  let entry =
    map3
      (fun version kind change -> { Penguin.Commit_log.version; kind; change })
      (int_bound 100_000) str
      (frequency
         [ 4, map (fun d -> Penguin.Commit_log.Delta d) delta;
           1, map (fun r -> Penguin.Commit_log.Barrier r) str ])
  in
  let* record = list_size (int_range 1 3) entry in
  let tree = Test_util.check_ok (Sexp.parse (Penguin.Journal.record_payload record)) in
  let* edits = int_bound 2 in
  let rec edit n t = if n = 0 then return t else Test_store.mutation t >>= edit (n - 1) in
  let* tree = edit edits tree in
  Test_store.render ~layout:(oneofl [ Sexp.to_string; Test_store.wrapped_layout ]) tree

let entry_equal (a : Penguin.Commit_log.entry) (b : Penguin.Commit_log.entry) =
  a.version = b.version && String.equal a.kind b.kind
  &&
  match a.change, b.change with
  | Penguin.Commit_log.Delta d, Penguin.Commit_log.Delta d' -> Delta.equal d d'
  | Penguin.Commit_log.Barrier r, Penguin.Commit_log.Barrier r' -> String.equal r r'
  | _ -> false

let prop_record_reader_matches_tree_reader =
  QCheck.Test.make ~name:"record reader = tree reader, on any payload" ~count:400
    (QCheck.make ~print:Fun.id record_case_gen)
    (fun payload ->
      Test_store.same_result (List.equal entry_equal)
        (Penguin.Journal.record_of_payload payload)
        (Tree_reader.record_of_payload payload))

let suite =
  [
    Alcotest.test_case "crc32 check vector" `Quick test_crc32_vector;
    qtest prop_crc32_reference;
    qtest prop_record_reader_matches_tree_reader;
    Alcotest.test_case "initialize and replay" `Quick test_initialize_replay;
    Alcotest.test_case "append/replay roundtrip" `Quick
      test_append_replay_roundtrip;
    Alcotest.test_case "torn tail truncated at first bad record" `Quick
      test_torn_tail_truncated;
    Alcotest.test_case "checksum catches corruption" `Quick
      test_checksum_catches_corruption;
    Alcotest.test_case "rotate folds the journal into a snapshot" `Quick
      test_rotate;
  ]
