open Relational
open Test_util

let schema =
  Schema.make_exn ~name:"R"
    ~attributes:
      [ Attribute.int "id"; Attribute.str "grp"; Attribute.int "x" ]
    ~key:[ "id" ]

let seed n =
  Relation.of_list_exn schema
    (List.init n (fun i ->
         tuple
           [ "id", vi i; "grp", vs (Fmt.str "g%d" (i mod 5)); "x", vi (i * 10) ]))

let rel_err = Result.map_error Relation.error_to_string

let test_create_index () =
  let r = check_ok (rel_err (Relation.create_index (seed 20) [ "grp" ])) in
  Alcotest.(check bool) "has index" true (Relation.has_index r [ "grp" ]);
  Alcotest.(check bool) "order free" true (Relation.has_index r [ "grp" ]);
  Alcotest.(check int) "one index" 1 (List.length (Relation.indexes r));
  (* rebuilding replaces, not duplicates *)
  let r = check_ok (rel_err (Relation.create_index r [ "grp" ])) in
  Alcotest.(check int) "still one" 1 (List.length (Relation.indexes r))

let test_create_index_errors () =
  ignore (check_err (rel_err (Relation.create_index (seed 3) [])));
  ignore (check_err (rel_err (Relation.create_index (seed 3) [ "ghost" ])))

let test_lookup_eq_matches_scan () =
  let plain = seed 50 in
  let indexed = check_ok (rel_err (Relation.create_index plain [ "grp" ])) in
  let bindings = [ "grp", vs "g3" ] in
  Alcotest.(check (list tuple_testable)) "same result"
    (Relation.lookup_eq plain bindings)
    (Relation.lookup_eq indexed bindings);
  Alcotest.(check int) "ten hits" 10 (List.length (Relation.lookup_eq indexed bindings))

let test_lookup_eq_null_binding () =
  let indexed = check_ok (rel_err (Relation.create_index (seed 10) [ "grp" ])) in
  Alcotest.(check int) "null matches nothing" 0
    (List.length (Relation.lookup_eq indexed [ "grp", Value.Null ]))

let test_index_maintained_by_insert_delete () =
  let r = check_ok (rel_err (Relation.create_index (seed 10) [ "grp" ])) in
  let r = check_ok (rel_err (Relation.insert r (tuple [ "id", vi 100; "grp", vs "g3" ]))) in
  Alcotest.(check int) "insert indexed" 3
    (List.length (Relation.lookup_eq r [ "grp", vs "g3" ]));
  let r = check_ok (rel_err (Relation.delete_key r [ vi 3 ])) in
  Alcotest.(check int) "delete deindexed" 2
    (List.length (Relation.lookup_eq r [ "grp", vs "g3" ]))

let test_index_maintained_by_replace () =
  let r = check_ok (rel_err (Relation.create_index (seed 10) [ "grp" ])) in
  (* move tuple 3 from g3 to g0, changing its key too *)
  let r =
    check_ok
      (rel_err
         (Relation.replace r ~old_key:[ vi 3 ]
            (tuple [ "id", vi 300; "grp", vs "g0"; "x", vi 30 ])))
  in
  Alcotest.(check int) "g3 shrank" 1
    (List.length (Relation.lookup_eq r [ "grp", vs "g3" ]));
  Alcotest.(check int) "g0 grew" 3
    (List.length (Relation.lookup_eq r [ "grp", vs "g0" ]));
  Alcotest.(check bool) "new key reachable" true
    (List.exists
       (fun t -> Value.equal (Tuple.get t "id") (vi 300))
       (Relation.lookup_eq r [ "grp", vs "g0" ]))

let test_multi_attr_index () =
  let r = check_ok (rel_err (Relation.create_index (seed 30) [ "grp"; "x" ])) in
  let hits = Relation.lookup_eq r [ "grp", vs "g2"; "x", vi 70 ] in
  Alcotest.(check int) "one hit" 1 (List.length hits);
  Alcotest.check value_testable "right tuple" (vi 7)
    (Tuple.get (List.hd hits) "id")

let test_equal_ignores_indexes () =
  let plain = seed 5 in
  let indexed = check_ok (rel_err (Relation.create_index plain [ "grp" ])) in
  Alcotest.(check bool) "equal" true (Relation.equal plain indexed)

let test_database_create_index () =
  let db = Database.create_relation_exn Database.empty schema in
  let db = check_ok (Result.map_error Database.error_to_string (Database.create_index db "R" [ "grp" ])) in
  Alcotest.(check bool) "indexed through catalog" true
    (Relation.has_index (Database.relation_exn db "R") [ "grp" ]);
  match Database.create_index db "NOPE" [ "grp" ] with
  | Error (Database.Unknown_relation _) -> ()
  | _ -> Alcotest.fail "expected Unknown_relation"

(* Every workspace database comes from [Schema_graph.create_database],
   so both ends of every connection are indexed from the start. *)
let test_workspace_create_indexes () =
  let ws = Penguin.Workspace.create Penguin.University.graph in
  Alcotest.(check bool) "grades indexed on course_id" true
    (Relation.has_index
       (Database.relation_exn ws.Penguin.Workspace.db "GRADES")
       [ "course_id" ]);
  let ws = Penguin.University.workspace () in
  (* results are identical to those over an unindexed copy *)
  let db = ws.Penguin.Workspace.db in
  let unindexed =
    List.fold_left
      (fun copy n ->
        let r = Database.relation_exn db n in
        let copy = Database.create_relation_exn copy (Relation.schema r) in
        check_ok
          (Result.map_error Database.error_to_string
             (Database.with_relation copy n (fun r' ->
                  Relation.insert_all r' (Relation.to_list r)))))
      Database.empty (Database.relation_names db)
  in
  Alcotest.(check bool) "copy unindexed" false
    (Relation.has_index (Database.relation_exn unindexed "GRADES") [ "course_id" ]);
  let i = Penguin.University.cs345_instance db in
  let i' = Penguin.University.cs345_instance unindexed in
  Alcotest.(check bool) "same instance" true (Viewobject.Instance.equal i i');
  (* updates still work and stay consistent *)
  let ws', outcome =
    Penguin.Workspace.update ws "omega" (Vo_core.Request.delete i)
  in
  ignore (committed_db outcome);
  check_ok (Penguin.Workspace.check_consistency ws')

let prop_lookup_eq_index_equals_scan =
  QCheck.Test.make ~name:"indexed lookup_eq = scan" ~count:100
    QCheck.(pair (list_of_size (QCheck.Gen.int_bound 40) (QCheck.int_bound 200)) (QCheck.int_bound 4))
    (fun (ids, probe) ->
      let ids = List.sort_uniq compare ids in
      let rows =
        List.map
          (fun i -> tuple [ "id", vi i; "grp", vs (Fmt.str "g%d" (i mod 5)) ])
          ids
      in
      let plain = Relation.of_list_exn schema rows in
      match Relation.create_index plain [ "grp" ] with
      | Error _ -> false
      | Ok indexed ->
          let b = [ "grp", vs (Fmt.str "g%d" probe) ] in
          List.equal Tuple.equal
            (Relation.lookup_eq plain b)
            (Relation.lookup_eq indexed b))

(* Index maintenance under random edits. Ids 0..11 and groups g0..g2
   plus Null collide often: replaces keep or change the key, keep or
   change an indexed value, and move tuples in and out of Null. *)
type edit =
  | Ins of int * int option * int  (** id, group (None = Null), x *)
  | Del of int  (** position among the live keys *)
  | Rep of int * int option * int option * int
      (** position among the live keys, new id (None = keep), group, x *)

let grp = function Some g -> vs (Fmt.str "g%d" g) | None -> Value.Null

let pp_edit ppf = function
  | Ins (id, g, x) -> Fmt.pf ppf "ins(%d,%a,%d)" id Value.pp (grp g) x
  | Del i -> Fmt.pf ppf "del#%d" i
  | Rep (i, id, g, x) ->
      Fmt.pf ppf "rep#%d(%a,%a,%d)" i Fmt.(option ~none:(any "=") int) id
        Value.pp (grp g) x

let gen_edit =
  let open QCheck.Gen in
  let group = opt ~ratio:0.8 (int_bound 2) in
  frequency
    [
      3, map3 (fun id g x -> Ins (id, g, x)) (int_bound 11) group (int_bound 1);
      1, map (fun i -> Del i) (int_bound 11);
      4,
      map2
        (fun (i, id) (g, x) -> Rep (i, id, g, x))
        (pair (int_bound 11) (opt ~ratio:0.4 (int_bound 11)))
        (pair group (int_bound 1));
    ]

let row id g x = tuple [ "id", vi id; "grp", grp g; "x", vi x ]

(* A failed edit (duplicate key, nothing to delete) leaves [r] as it was. *)
let apply_edit r edit =
  let nth i = List.nth_opt (Relation.to_list r) (i mod max 1 (Relation.cardinality r)) in
  let result =
    match edit with
    | Ins (id, g, x) -> Relation.insert r (row id g x)
    | Del i -> (
        match nth i with
        | Some t -> Relation.delete_tuple r t
        | None -> Ok r)
    | Rep (i, id, g, x) -> (
        match nth i with
        | Some t ->
            let old_key = Relation.key_of r t in
            let id = Option.value id ~default:(match old_key with [ Value.Int k ] -> k | _ -> 0) in
            Relation.replace r ~old_key (row id g x)
        | None -> Ok r)
  in
  Result.value result ~default:r

let probes =
  List.concat_map
    (fun g ->
      [ "grp", grp g ] :: List.map (fun x -> [ "grp", grp g; "x", vi x ]) [ 0; 1 ])
    [ Some 0; Some 1; Some 2; None ]

let agrees_with_scan r =
  List.for_all
    (fun b ->
      let scan =
        Relation.select
          (Predicate.conj
             (List.map (fun (a, v) -> Predicate.Cmp (a, Predicate.Eq, v)) b))
          r
      in
      List.equal Tuple.equal (Relation.lookup_eq r b) scan
      && Relation.exists_eq r b = (scan <> []))
    probes

let prop_index_maintenance =
  QCheck.Test.make ~name:"lookup_eq/exists_eq = scan after every edit" ~count:300
    (QCheck.make
       ~print:(Fmt.str "%a" Fmt.(list ~sep:sp pp_edit))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_bound 60) gen_edit))
    (fun edits ->
      let r0 = Relation.of_list_exn schema [] in
      let r0 = Result.get_ok (Relation.create_index r0 [ "grp" ]) in
      let r0 = Result.get_ok (Relation.create_index r0 [ "grp"; "x" ]) in
      (* ...and the indexes built in bulk from the final tuples agree too. *)
      let rec go r = function
        | [] -> agrees_with_scan (Result.get_ok (Relation.insert_all r0 (Relation.to_list r)))
        | e :: rest ->
            let r = apply_edit r e in
            agrees_with_scan r && go r rest
      in
      go r0 edits)

(* The bulk constructor against inserting one tuple at a time, on rows in
   any order with repeated keys, a null key, a value of the wrong domain,
   a missing attribute (padded with null) or an extra one (dropped), into
   an empty or a filled relation: the same relation, with indexes that
   agree with a scan, or the same error. *)
let prop_bulk_equals_inserts =
  let row =
    QCheck.Gen.(
      map3
        (fun id g x -> id, g, x)
        (frequency [ 8, map (fun i -> Some i) (int_bound 12); 1, return None ])
        (int_bound 3)
        (frequency [ 6, map (fun x -> `Int x) (int_bound 3); 1, return `Wrong; 1, return `Missing; 1, return `Extra ]))
  in
  let tuple_of (id, g, x) =
    let id = match id with Some i -> vi i | None -> Value.Null in
    let base = [ "id", id; "grp", vs (Fmt.str "g%d" g) ] in
    tuple
      (match x with
      | `Int x -> base @ [ "x", vi x ]
      | `Wrong -> base @ [ "x", vs "ten" ]
      | `Missing -> base
      | `Extra -> base @ [ "x", vi 1; "y", vi 2 ])
  in
  QCheck.Test.make ~name:"insert_all = inserting one tuple at a time" ~count:500
    QCheck.(pair bool (make QCheck.Gen.(list_size (int_bound 30) row)))
    (fun (filled, rows) ->
      let r0 = Relation.of_list_exn schema [] in
      let r0 = Result.get_ok (Relation.create_index r0 [ "grp" ]) in
      let r0 = Result.get_ok (Relation.create_index r0 [ "grp"; "x" ]) in
      let r0 =
        if filled then
          Result.get_ok
            (Relation.insert_all r0
               [ tuple [ "id", vi 3; "grp", vs "g1"; "x", vi 0 ];
                 tuple [ "id", vi 20; "grp", vs "g0"; "x", vi 1 ] ])
        else r0
      in
      let ts = List.map tuple_of rows in
      let one_by_one =
        List.fold_left (fun acc t -> Result.bind acc (fun r -> Relation.insert r t)) (Ok r0) ts
      in
      match Relation.insert_all r0 ts, one_by_one with
      | Ok bulk, Ok r -> Relation.equal bulk r && agrees_with_scan bulk
      | Error e, Error e' -> Relation.error_to_string e = Relation.error_to_string e'
      | Ok _, Error _ | Error _, Ok _ -> false)

let suite =
  [
    Alcotest.test_case "create index" `Quick test_create_index;
    Alcotest.test_case "create index errors" `Quick test_create_index_errors;
    Alcotest.test_case "lookup_eq = scan" `Quick test_lookup_eq_matches_scan;
    Alcotest.test_case "null binding" `Quick test_lookup_eq_null_binding;
    Alcotest.test_case "insert/delete maintain" `Quick test_index_maintained_by_insert_delete;
    Alcotest.test_case "replace maintains" `Quick test_index_maintained_by_replace;
    Alcotest.test_case "multi-attribute index" `Quick test_multi_attr_index;
    Alcotest.test_case "equality ignores indexes" `Quick test_equal_ignores_indexes;
    Alcotest.test_case "database create_index" `Quick test_database_create_index;
    Alcotest.test_case "workspace create indexes" `Quick test_workspace_create_indexes;
    qtest prop_lookup_eq_index_equals_scan;
    qtest prop_index_maintenance;
    qtest prop_bulk_equals_inserts;
  ]
