open Relational
open Test_util

let schema =
  Schema.make_exn ~name:"R"
    ~attributes:[ Attribute.int "id"; Attribute.str "v" ]
    ~key:[ "id" ]

let rel_of l = Relation.of_list_exn schema (List.map tuple l)

let r3 =
  rel_of [ [ "id", vi 1; "v", vs "a" ]; [ "id", vi 2; "v", vs "b" ];
           [ "id", vi 3; "v", vs "c" ] ]

let relation_error_testable =
  Alcotest.testable Relation.pp_error (fun a b ->
      Relation.error_to_string a = Relation.error_to_string b)

let test_empty () =
  let r = Relation.empty schema in
  Alcotest.(check int) "cardinality" 0 (Relation.cardinality r);
  Alcotest.(check bool) "is_empty" true (Relation.is_empty r);
  Alcotest.(check string) "name" "R" (Relation.name r)

let test_insert () =
  Alcotest.(check int) "three rows" 3 (Relation.cardinality r3);
  Alcotest.(check bool) "mem" true (Relation.mem_key r3 [ vi 2 ])

let test_insert_pads_nulls () =
  let r = check_ok ~msg:"insert"
      (Result.map_error Relation.error_to_string
         (Relation.insert (Relation.empty schema) (tuple [ "id", vi 9 ])))
  in
  let t = Option.get (Relation.lookup r [ vi 9 ]) in
  Alcotest.check value_testable "padded" Value.Null (Tuple.get t "v");
  Alcotest.(check int) "full width" 2 (Tuple.cardinal t)

let test_insert_duplicate () =
  match Relation.insert r3 (tuple [ "id", vi 1; "v", vs "z" ]) with
  | Error (Relation.Duplicate_key [ k ]) ->
      Alcotest.check value_testable "dup key" (vi 1) k
  | _ -> Alcotest.fail "expected Duplicate_key"

let test_insert_nonconforming () =
  (match Relation.insert r3 (tuple [ "id", vs "nope" ]) with
  | Error (Relation.Nonconforming _) -> ()
  | _ -> Alcotest.fail "expected Nonconforming");
  match Relation.insert r3 (tuple [ "v", vs "nokey" ]) with
  | Error (Relation.Nonconforming _) -> ()
  | _ -> Alcotest.fail "expected Nonconforming for null key"

let test_delete () =
  let r = check_ok ~msg:"delete"
      (Result.map_error Relation.error_to_string (Relation.delete_key r3 [ vi 2 ]))
  in
  Alcotest.(check int) "two left" 2 (Relation.cardinality r);
  (match Relation.delete_key r3 [ vi 99 ] with
  | Error (Relation.No_such_key _) -> ()
  | _ -> Alcotest.fail "expected No_such_key");
  let r' = check_ok ~msg:"delete_tuple"
      (Result.map_error Relation.error_to_string
         (Relation.delete_tuple r3 (tuple [ "id", vi 1; "v", vs "a" ])))
  in
  Alcotest.(check bool) "1 gone" false (Relation.mem_key r' [ vi 1 ])

let test_replace_same_key () =
  let r = check_ok ~msg:"replace"
      (Result.map_error Relation.error_to_string
         (Relation.replace r3 ~old_key:[ vi 1 ] (tuple [ "id", vi 1; "v", vs "z" ])))
  in
  Alcotest.check value_testable "updated" (vs "z")
    (Tuple.get (Option.get (Relation.lookup r [ vi 1 ])) "v")

let test_replace_key_change () =
  let r = check_ok ~msg:"replace key"
      (Result.map_error Relation.error_to_string
         (Relation.replace r3 ~old_key:[ vi 1 ] (tuple [ "id", vi 10; "v", vs "a" ])))
  in
  Alcotest.(check bool) "old gone" false (Relation.mem_key r [ vi 1 ]);
  Alcotest.(check bool) "new there" true (Relation.mem_key r [ vi 10 ]);
  Alcotest.(check int) "same count" 3 (Relation.cardinality r)

let test_replace_collision () =
  match Relation.replace r3 ~old_key:[ vi 1 ] (tuple [ "id", vi 2; "v", vs "a" ]) with
  | Error (Relation.Duplicate_key _) -> ()
  | _ -> Alcotest.fail "expected Duplicate_key on collision"

let test_replace_missing () =
  match Relation.replace r3 ~old_key:[ vi 99 ] (tuple [ "id", vi 99 ]) with
  | Error (Relation.No_such_key _) -> ()
  | _ -> Alcotest.fail "expected No_such_key"

let test_lookup_mem_tuple () =
  Alcotest.(check bool) "mem_tuple exact" true
    (Relation.mem_tuple r3 (tuple [ "id", vi 1; "v", vs "a" ]));
  Alcotest.(check bool) "mem_tuple differs" false
    (Relation.mem_tuple r3 (tuple [ "id", vi 1; "v", vs "zzz" ]));
  Alcotest.(check bool) "find_matching" true
    (Option.is_some (Relation.find_matching r3 (tuple [ "id", vi 3 ])))

let test_select_order () =
  let sel = Relation.select (Predicate.gt_int "id" 1) r3 in
  Alcotest.(check int) "two match" 2 (List.length sel);
  let all = Relation.to_list r3 in
  Alcotest.(check (list string)) "key order" [ "a"; "b"; "c" ]
    (List.map (fun t -> Fmt.str "%a" Value.pp_plain (Tuple.get t "v")) all)

let test_of_list_error () =
  match
    Relation.of_list schema [ tuple [ "id", vi 1 ]; tuple [ "id", vi 1 ] ]
  with
  | Error (Relation.Duplicate_key _) -> ()
  | _ -> Alcotest.fail "expected Duplicate_key"

let test_equal () =
  Alcotest.(check bool) "equal self" true (Relation.equal r3 r3);
  Alcotest.(check bool) "not equal" false (Relation.equal r3 (Relation.empty schema));
  ignore relation_error_testable

(* Property: inserting distinct keys then deleting them returns empty. *)
let prop_insert_delete_roundtrip =
  QCheck.Test.make ~name:"insert-then-delete roundtrip" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_bound 20) small_nat)
    (fun ids ->
      let ids = List.sort_uniq compare ids in
      let r =
        List.fold_left
          (fun r i ->
            match Relation.insert r (tuple [ "id", vi i; "v", vs "x" ]) with
            | Ok r -> r
            | Error _ -> r)
          (Relation.empty schema) ids
      in
      let r =
        List.fold_left
          (fun r i ->
            match Relation.delete_key r [ vi i ] with Ok r -> r | Error _ -> r)
          r ids
      in
      Relation.is_empty r)

let prop_cardinality =
  QCheck.Test.make ~name:"cardinality = distinct keys" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_bound 30) small_nat)
    (fun ids ->
      let distinct = List.sort_uniq compare ids in
      let r =
        List.fold_left
          (fun r i ->
            match Relation.insert r (tuple [ "id", vi i ]) with
            | Ok r -> r
            | Error _ -> r)
          (Relation.empty schema) ids
      in
      Relation.cardinality r = List.length distinct)

(* Keymap against the standard library's [Map] over the same keys: after
   any sequence of adds and removes, from empty or from a map built by
   [of_sorted], lookups, order, size and equality agree. *)
module KM = Map.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

let prop_keymap_matches_map =
  let key = QCheck.Gen.(map (fun (a, b) -> [ vi a; vs (string_of_int b) ]) (pair (int_bound 9) (int_bound 3))) in
  let op = QCheck.Gen.(pair bool (pair key (int_bound 100))) in
  QCheck.Test.make ~name:"Keymap = Map, after any adds and removes" ~count:500
    QCheck.(make QCheck.Gen.(pair (int_bound 40) (list_size (int_bound 80) op)))
    (fun (n, ops) ->
      let sorted = Array.init n (fun i -> [ vi (i / 4); vs (string_of_int (i mod 4)) ], i) in
      let m0 = Keymap.of_sorted n ~key:(fun i -> fst sorted.(i)) ~data:(fun i -> snd sorted.(i)) in
      let r0 = Array.fold_left (fun m (k, d) -> KM.add k d m) KM.empty sorted in
      let m, r =
        List.fold_left
          (fun (m, r) (add, (k, d)) ->
            if add then Keymap.add k d m, KM.add k d r else Keymap.remove k m, KM.remove k r)
          (m0, r0) ops
      in
      Keymap.fold (fun k d acc -> (k, d) :: acc) m [] = List.rev (KM.bindings r)
      && Keymap.keys m = List.map fst (KM.bindings r)
      && Keymap.cardinal m = KM.cardinal r
      && List.for_all (fun (_, (k, _)) -> Keymap.find_opt k m = KM.find_opt k r) ops
      && Keymap.equal Int.equal m
           (Keymap.of_sorted (KM.cardinal r)
              ~key:(fun i -> fst (List.nth (KM.bindings r) i))
              ~data:(fun i -> snd (List.nth (KM.bindings r) i))))

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "insert" `Quick test_insert;
    Alcotest.test_case "insert pads nulls" `Quick test_insert_pads_nulls;
    Alcotest.test_case "insert duplicate" `Quick test_insert_duplicate;
    Alcotest.test_case "insert nonconforming" `Quick test_insert_nonconforming;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "replace same key" `Quick test_replace_same_key;
    Alcotest.test_case "replace key change" `Quick test_replace_key_change;
    Alcotest.test_case "replace collision" `Quick test_replace_collision;
    Alcotest.test_case "replace missing" `Quick test_replace_missing;
    Alcotest.test_case "lookup/mem_tuple" `Quick test_lookup_mem_tuple;
    Alcotest.test_case "select & order" `Quick test_select_order;
    Alcotest.test_case "of_list error" `Quick test_of_list_error;
    Alcotest.test_case "equal" `Quick test_equal;
    qtest prop_insert_delete_roundtrip;
    qtest prop_cardinality;
    qtest prop_keymap_matches_map;
  ]
