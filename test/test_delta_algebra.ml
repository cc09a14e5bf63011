(* Algebra of first-class deltas (footprints, conflicts, merge) and the
   group-commit equivalence they license: merging conflict-free deltas
   and applying the batch at once must agree with applying the updates
   one at a time.

   - [Delta.conflicts] is symmetric, and empty exactly when [merge]
     succeeds (for pure deltas a read key is also a write key, so every
     overlap is a write overlap);
   - [Delta.merge] is commutative and associative where defined — and
     definedness itself is association-independent, because merge is a
     disjoint union (no cancellation), so the merged write set is the
     union of the parts';
   - [Engine.commit_group] of a conflict-free staged batch produces the
     same database as folding [Engine.apply] over the requests. *)
open Relational
open Viewobject
open Test_util

(* --- random pure deltas ----------------------------------------------- *)

let tuple k v = Tuple.make [ "k", Value.Int k; "v", Value.Int v ]

(* (relation, key, value, kind): kind 0 = Added, 1 = Removed, 2 = Updated.
   Keys draw from a small range so overlaps between deltas are common. *)
let apply_change d (rel, k, v, kind) =
  let key = [ Value.Int k ] in
  match kind with
  | 0 -> Delta.record d ~rel ~key ~old_image:None ~new_image:(Some (tuple k v))
  | 1 -> Delta.record d ~rel ~key ~old_image:(Some (tuple k v)) ~new_image:None
  | _ ->
      Delta.record d ~rel ~key ~old_image:(Some (tuple k v))
        ~new_image:(Some (tuple k (v + 1)))

let delta_of_list = List.fold_left apply_change Delta.empty

let change_gen =
  QCheck.Gen.(
    quad (oneofl [ "R"; "S"; "T" ]) (int_bound 7) (int_bound 5) (int_bound 2))

let delta_gen = QCheck.Gen.(map delta_of_list (list_size (int_bound 6) change_gen))

let delta_arb = QCheck.make ~print:(Fmt.to_to_string Delta.pp) delta_gen

let prop_conflicts_symmetric =
  QCheck.Test.make ~name:"conflicts is symmetric" ~count:500
    (QCheck.pair delta_arb delta_arb)
    (fun (a, b) -> Delta.conflicts a b = Delta.conflicts b a)

let prop_conflicts_iff_merge_fails =
  QCheck.Test.make ~name:"conflicts empty iff merge succeeds" ~count:500
    (QCheck.pair delta_arb delta_arb)
    (fun (a, b) -> Delta.conflicts a b = [] = Result.is_ok (Delta.merge a b))

let prop_merge_commutative =
  QCheck.Test.make ~name:"merge is commutative where defined" ~count:500
    (QCheck.pair delta_arb delta_arb)
    (fun (a, b) ->
      match Delta.merge a b, Delta.merge b a with
      | Ok ab, Ok ba -> Delta.equal ab ba
      | Error _, Error _ -> true
      | Ok _, Error _ | Error _, Ok _ -> false)

let prop_merge_associative =
  QCheck.Test.make ~name:"merge is associative on non-conflicting deltas"
    ~count:500
    (QCheck.triple delta_arb delta_arb delta_arb)
    (fun (a, b, c) ->
      let left = Result.bind (Delta.merge a b) (fun ab -> Delta.merge ab c) in
      let right = Result.bind (Delta.merge b c) (fun bc -> Delta.merge a bc) in
      match left, right with
      | Ok l, Ok r -> Delta.equal l r
      | Error _, Error _ -> true
      | Ok _, Error _ | Error _, Ok _ -> false)

(* --- compose: sequential composition ---------------------------------- *)

let prop_compose_empty_identity =
  QCheck.Test.make ~name:"compose: empty is a two-sided identity" ~count:300
    delta_arb
    (fun d ->
      Delta.equal (Delta.compose Delta.empty d) d
      && Delta.equal (Delta.compose d Delta.empty) d)

let test_compose_nets_per_key () =
  let key = [ Value.Int 1 ] in
  let upd a b =
    Delta.record Delta.empty ~rel:"R" ~key ~old_image:(Some (tuple 1 a))
      ~new_image:(Some (tuple 1 b))
  in
  (* update;update nets to one update carrying the outer images... *)
  Alcotest.(check bool) "update;update nets" true
    (Delta.equal (Delta.compose (upd 0 1) (upd 1 2)) (upd 0 2));
  (* ...and insert;delete cancels to nothing. *)
  let add =
    Delta.record Delta.empty ~rel:"R" ~key ~old_image:None
      ~new_image:(Some (tuple 1 5))
  in
  let del =
    Delta.record Delta.empty ~rel:"R" ~key ~old_image:(Some (tuple 1 5))
      ~new_image:None
  in
  Alcotest.(check bool) "insert;delete cancels" true
    (Delta.is_empty (Delta.compose add del))

(* --- group commit vs sequential apply --------------------------------- *)

let g = Penguin.University.graph
let omega = Penguin.University.omega
let spec = Penguin.University.omega_translator

(* One grade edit per course: instances of distinct courses have
   disjoint write footprints (the island is COURSES + GRADES), so any
   subset of these requests is a conflict-free batch. Seeded enrolment
   facts: see University.seeded_db. *)
let enrolments = [ "CS101", 1; "CS345", 2; "EE280", 1 ]

let grade_edit db (course, pid) grade =
  let inst =
    match
      Instantiate.instantiate ~where:(Predicate.eq_str "course_id" course) db
        omega
    with
    | [ i ] -> i
    | l -> Alcotest.failf "expected 1 instance of %s, got %d" course (List.length l)
  in
  match
    Vo_core.Request.partial_modify inst ~label:"GRADES"
      ~at:(Tuple.make [ "pid", Value.Int pid ])
      ~f:(fun t -> Tuple.set t "grade" (Value.Str (Fmt.str "G%d" grade)))
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "building request on %s: %s" course e

let sequential db reqs =
  List.fold_left
    (fun db r ->
      match (Vo_core.Engine.apply g db omega spec r).Vo_core.Engine.result with
      | Transaction.Committed db' -> db'
      | Transaction.Rolled_back { reason; _ } ->
          Alcotest.failf "sequential apply rejected: %s" reason)
    db reqs

let stage1 db r =
  match Vo_core.Engine.stage g db omega spec r with
  | Ok s -> s
  | Error e -> Alcotest.failf "stage: %s" (Vo_core.Engine.stage_error_reason e)

(* mask picks a non-empty subset of the three courses; grades vary the
   written values. *)
let prop_group_commit_equals_sequential =
  QCheck.Test.make
    ~name:"commit_group of a conflict-free batch equals sequential apply"
    ~count:50
    QCheck.(pair (int_range 1 7) (triple (0 -- 9) (0 -- 9) (0 -- 9)))
    (fun (mask, (g1, g2, g3)) ->
      let db = Penguin.University.seeded_db () in
      let picked =
        List.filteri (fun i _ -> mask land (1 lsl i) <> 0) enrolments
      in
      let grades = [ g1; g2; g3 ] in
      let reqs = List.mapi (fun i e -> grade_edit db e (List.nth grades i)) picked in
      let staged = List.map (stage1 db) reqs in
      match Vo_core.Engine.commit_group g db staged with
      | Error rej ->
          QCheck.Test.fail_reportf "group commit rejected: %s"
            (Vo_core.Engine.group_rejection_reason rej)
      | Ok (db_group, _) -> Database.equal db_group (sequential db reqs))

let test_group_conflict_detected () =
  let db = Penguin.University.seeded_db () in
  (* Two edits to the same (course, pid) grade: a write-write conflict. *)
  let r1 = grade_edit db ("CS345", 2) 1 in
  let r2 = grade_edit db ("CS345", 2) 2 in
  match
    Vo_core.Engine.commit_group g db [ stage1 db r1; stage1 db r2 ]
  with
  | Ok _ -> Alcotest.fail "conflicting batch committed"
  | Error (Vo_core.Engine.Group_conflict { left; right; conflict }) ->
      Alcotest.(check int) "left" 0 left;
      Alcotest.(check int) "right" 1 right;
      Alcotest.(check string) "relation" "GRADES" conflict.Delta.rel
  | Error rej ->
      Alcotest.failf "unexpected rejection: %s"
        (Vo_core.Engine.group_rejection_reason rej)

(* The contract [Workspace.sync_cache] leans on: applying the composed
   net delta of a commit sequence lands on the same database as applying
   the commits one at a time. *)
let test_compose_matches_sequential_apply () =
  let apply db d =
    match Database.apply_delta db d with
    | Ok db -> db
    | Error e -> Alcotest.failf "apply_delta: %s" (Database.error_to_string e)
  in
  let db0 = Penguin.University.seeded_db () in
  let s1 = stage1 db0 (grade_edit db0 ("CS101", 1) 7) in
  let d1 = s1.Vo_core.Engine.delta in
  let db1 = apply db0 d1 in
  let s2 = stage1 db1 (grade_edit db1 ("CS345", 2) 8) in
  let d2 = s2.Vo_core.Engine.delta in
  let db2 = apply db1 d2 in
  Alcotest.(check bool) "apply (compose d1 d2) = apply d1; apply d2" true
    (Database.equal (apply db0 (Delta.compose d1 d2)) db2);
  (* A third commit touching the same tuple as the first: composition
     must net the pair into one Updated rather than stack them. *)
  let s3 = stage1 db2 (grade_edit db2 ("CS101", 1) 9) in
  let d3 = s3.Vo_core.Engine.delta in
  let db3 = apply db2 d3 in
  let net = Delta.compose (Delta.compose d1 d2) d3 in
  Alcotest.(check bool) "three-commit net lands on the final state" true
    (Database.equal (apply db0 net) db3);
  Alcotest.(check bool) "composition is associative here" true
    (Delta.equal net (Delta.compose d1 (Delta.compose d2 d3)))

let suite =
  [
    qtest prop_conflicts_symmetric;
    qtest prop_conflicts_iff_merge_fails;
    qtest prop_merge_commutative;
    qtest prop_merge_associative;
    qtest prop_group_commit_equals_sequential;
    Alcotest.test_case "write-write conflict rejected" `Quick
      test_group_conflict_detected;
    qtest prop_compose_empty_identity;
    Alcotest.test_case "compose nets changes per key" `Quick
      test_compose_nets_per_key;
    Alcotest.test_case "compose agrees with sequential application" `Quick
      test_compose_matches_sequential_apply;
  ]
