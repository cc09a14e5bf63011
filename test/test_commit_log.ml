(* Commit_log truncation edges: what entries_since / footprint_since
   report exactly at the truncation boundary, after of_version or trim,
   and across interleaved barriers (the synthetic-barrier prefix
   contract), plus the dense-version contract of append_entry. *)
open Relational
open Test_util

let delta_on ~rel ~key =
  Delta.add Delta.empty ~rel ~key (Tuple.make [ "k", List.hd key ])

let is_barrier (e : Penguin.Commit_log.entry) =
  match e.Penguin.Commit_log.change with
  | Penguin.Commit_log.Barrier _ -> true
  | Penguin.Commit_log.Delta _ -> false

let versions es = List.map (fun e -> e.Penguin.Commit_log.version) es

let test_of_version_boundary () =
  let log = Penguin.Commit_log.of_version 5 in
  Alcotest.(check int) "version" 5 (Penguin.Commit_log.version log);
  Alcotest.(check int) "truncated" 5 (Penguin.Commit_log.truncated log);
  (* Exactly at the truncation boundary: the full (empty) suffix is
     held, so no synthetic barrier. *)
  Alcotest.(check int) "at boundary: no entries" 0
    (List.length (Penguin.Commit_log.entries_since log 5));
  Alcotest.(check bool) "at boundary: footprint known" true
    (Penguin.Commit_log.footprint_since log 5 <> None);
  (* One below: history is truncated, a synthetic barrier stands in. *)
  (match Penguin.Commit_log.entries_since log 4 with
  | [ e ] ->
      Alcotest.(check bool) "synthetic barrier" true (is_barrier e);
      Alcotest.(check int) "barrier carries truncation version" 5
        e.Penguin.Commit_log.version
  | es -> Alcotest.failf "expected 1 synthetic entry, got %d" (List.length es));
  Alcotest.(check bool) "below boundary: footprint unknown" true
    (Penguin.Commit_log.footprint_since log 4 = None);
  (* Far below behaves the same. *)
  Alcotest.(check bool) "far below: footprint unknown" true
    (Penguin.Commit_log.footprint_since log 0 = None)

let test_entries_after_of_version () =
  let log = Penguin.Commit_log.of_version 5 in
  let log = Penguin.Commit_log.append log ~delta:(delta_on ~rel:"R" ~key:[ vi 1 ]) ~kind:"a" in
  let log = Penguin.Commit_log.append log ~delta:(delta_on ~rel:"R" ~key:[ vi 2 ]) ~kind:"b" in
  Alcotest.(check (list int)) "since boundary: both, oldest first" [ 6; 7 ]
    (versions (Penguin.Commit_log.entries_since log 5));
  Alcotest.(check (list int)) "since 6: newest only" [ 7 ]
    (versions (Penguin.Commit_log.entries_since log 6));
  Alcotest.(check (list int)) "since head: none" []
    (versions (Penguin.Commit_log.entries_since log 7));
  (* Below the boundary the synthetic barrier precedes the real entries. *)
  (match Penguin.Commit_log.entries_since log 3 with
  | b :: rest ->
      Alcotest.(check bool) "prefix is a barrier" true (is_barrier b);
      Alcotest.(check (list int)) "then the held entries" [ 6; 7 ] (versions rest)
  | [] -> Alcotest.fail "expected entries");
  Alcotest.(check bool) "footprint unknown below boundary" true
    (Penguin.Commit_log.footprint_since log 3 = None);
  (* At or above the boundary the footprint is the union of the deltas. *)
  match Penguin.Commit_log.footprint_since log 5 with
  | None -> Alcotest.fail "footprint should be known at the boundary"
  | Some fp ->
      Alcotest.(check int) "two relations' worth of writes" 2
        (List.length (List.concat_map snd (Delta.footprint_writes fp)))

let test_interleaved_barrier () =
  let log = Penguin.Commit_log.empty in
  let log = Penguin.Commit_log.append log ~delta:(delta_on ~rel:"R" ~key:[ vi 1 ]) ~kind:"a" in
  let log = Penguin.Commit_log.barrier log "sql script" in
  let log = Penguin.Commit_log.append log ~delta:(delta_on ~rel:"R" ~key:[ vi 2 ]) ~kind:"b" in
  (* Footprint across the barrier is unknowable; after it, known. *)
  Alcotest.(check bool) "across barrier: unknown" true
    (Penguin.Commit_log.footprint_since log 0 = None);
  Alcotest.(check bool) "from barrier on: unknown (barrier included)" true
    (Penguin.Commit_log.footprint_since log 1 = None);
  Alcotest.(check bool) "after barrier: known" true
    (Penguin.Commit_log.footprint_since log 2 <> None);
  Alcotest.(check (list int)) "entries keep order around the barrier"
    [ 1; 2; 3 ]
    (versions (Penguin.Commit_log.entries_since log 0))

let test_append_entry_density () =
  let log = Penguin.Commit_log.of_version 2 in
  let e v =
    {
      Penguin.Commit_log.version = v;
      kind = "replayed";
      change = Penguin.Commit_log.Delta (delta_on ~rel:"R" ~key:[ vi v ]);
    }
  in
  let log = check_ok (Penguin.Commit_log.append_entry log (e 3)) in
  Alcotest.(check int) "extended" 3 (Penguin.Commit_log.version log);
  check_err_contains ~sub:"cannot extend"
    (Penguin.Commit_log.append_entry log (e 5));
  check_err_contains ~sub:"cannot extend"
    (Penguin.Commit_log.append_entry log (e 3));
  let log = check_ok (Penguin.Commit_log.append_entry log (e 4)) in
  Alcotest.(check (list int)) "replayed entries line up" [ 3; 4 ]
    (versions (Penguin.Commit_log.entries_since log 2))

(* A log of [n] deltas, v1..vn, one key each. *)
let log_of n =
  List.fold_left
    (fun log v ->
      Penguin.Commit_log.append log ~delta:(delta_on ~rel:"R" ~key:[ vi v ])
        ~kind:"a")
    Penguin.Commit_log.empty
    (List.init n (fun i -> i + 1))

let test_trim_edges () =
  let module L = Penguin.Commit_log in
  let log = L.trim (log_of 6) ~keep_after:3 in
  Alcotest.(check int) "version kept" 6 (L.version log);
  Alcotest.(check int) "floor raised" 3 (L.truncated log);
  Alcotest.(check (list int)) "entries above the floor held" [ 4; 5; 6 ]
    (versions (L.entries log));
  (* At or below the floor already reached: the identity. *)
  Alcotest.(check bool) "trim at the floor is the identity" true
    (L.trim log ~keep_after:3 == log);
  Alcotest.(check bool) "trim below the floor is the identity" true
    (L.trim log ~keep_after:1 == log);
  (* At the floor the held suffix is whole; just below it, a barrier. *)
  Alcotest.(check (list int)) "since the floor" [ 4; 5; 6 ]
    (versions (L.entries_since log 3));
  Alcotest.(check bool) "footprint at the floor is known" true
    (L.footprint_since log 3 <> None);
  (match L.entries_since log 2 with
  | b :: rest ->
      Alcotest.(check bool) "just below: synthetic barrier" true (is_barrier b);
      Alcotest.(check int) "barrier carries the floor" 3 b.L.version;
      Alcotest.(check (list int)) "then the held entries" [ 4; 5; 6 ]
        (versions rest)
  | [] -> Alcotest.fail "expected entries below the floor");
  Alcotest.(check bool) "footprint just below is unknown" true
    (L.footprint_since log 2 = None);
  Alcotest.(check (list int)) "above the floor" [ 5; 6 ]
    (versions (L.entries_since log 4));
  (match L.footprint_since log 4 with
  | None -> Alcotest.fail "footprint above the floor should be known"
  | Some fp ->
      Alcotest.(check int) "two writes above v4" 2
        (List.length (List.concat_map snd (Delta.footprint_writes fp))));
  (* Past the version: clamped, every entry dropped, still at v6. *)
  let empty = L.trim log ~keep_after:100 in
  Alcotest.(check int) "clamped floor" 6 (L.truncated empty);
  Alcotest.(check int) "clamped version" 6 (L.version empty);
  Alcotest.(check int) "nothing held" 0 (L.length empty);
  Alcotest.(check (list int)) "nothing since the version" []
    (versions (L.entries_since empty 6));
  (* Appending after a trim continues the dense versions. *)
  let log = L.append empty ~delta:(delta_on ~rel:"R" ~key:[ vi 7 ]) ~kind:"b" in
  Alcotest.(check int) "appended after trim" 7 (L.version log);
  Alcotest.(check (list int)) "since the floor after append" [ 7 ]
    (versions (L.entries_since log 6));
  Alcotest.(check bool) "footprint since the floor after append is known" true
    (L.footprint_since log 6 <> None);
  Alcotest.(check bool) "below it still a barrier" true
    (L.footprint_since log 5 = None)

let suite =
  [
    Alcotest.test_case "of_version boundary" `Quick test_of_version_boundary;
    Alcotest.test_case "entries after of_version" `Quick
      test_entries_after_of_version;
    Alcotest.test_case "interleaved barrier" `Quick test_interleaved_barrier;
    Alcotest.test_case "append_entry requires dense versions" `Quick
      test_append_entry_density;
    Alcotest.test_case "trim edges" `Quick test_trim_edges;
  ]
