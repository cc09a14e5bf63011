open Relational

type violation = {
  connection : Connection.t;
  relation : string;
  tuple : Tuple.t;
  message : string;
}

let pp_violation ppf v =
  Fmt.pf ppf "[%s] %s: %a (%s)" (Connection.id v.connection) v.relation
    Tuple.pp v.tuple v.message

let orphan_violation (c : Connection.t) t2 =
  {
    connection = c;
    relation = c.target;
    tuple = t2;
    message =
      Fmt.str "no %s tuple in %s"
        (if c.kind = Connection.Ownership then "owning" else "general")
        c.source;
  }

let dangling_violation (c : Connection.t) t1 =
  {
    connection = c;
    relation = c.source;
    tuple = t1;
    message = Fmt.str "dangling reference into %s" c.target;
  }

(* Rule 1 of Defs. 2.2/2.4 for one target tuple: does its source
   (owning / general) tuple exist? *)
let has_source db (c : Connection.t) t2 =
  let bindings =
    List.map2 (fun x1 x2 -> x1, Tuple.get t2 x2) c.source_attrs c.target_attrs
  in
  Relation.exists_eq (Database.relation_exn db c.source) bindings

(* Rule 1 of Def. 2.3 for one source tuple: does its non-null reference
   resolve? (Null references are vacuously fine.) *)
let reference_resolves db (c : Connection.t) t1 =
  Tuple.has_nulls_on c.source_attrs t1
  ||
  let bindings =
    List.map2 (fun x1 x2 -> x2, Tuple.get t1 x1) c.source_attrs c.target_attrs
  in
  Relation.exists_eq (Database.relation_exn db c.target) bindings

let check_connection g db (c : Connection.t) =
  let source = Database.relation_exn db c.source in
  let target = Database.relation_exn db c.target in
  ignore (Schema_graph.schema_exn g c.source);
  (* Existence tests go through {!Relation.exists_eq} so a secondary
     index on the connecting attributes serves them. *)
  match c.kind with
  | Connection.Ownership | Connection.Subset ->
      (* Rule 1 of Defs. 2.2/2.4: every target tuple has its source tuple. *)
      Relation.fold
        (fun t2 acc -> if has_source db c t2 then acc else orphan_violation c t2 :: acc)
        target []
  | Connection.Reference ->
      (* Rule 1 of Def. 2.3: non-null references must resolve. *)
      Relation.fold
        (fun t1 acc ->
          if reference_resolves db c t1 then acc
          else dangling_violation c t1 :: acc)
        source []

let m_check_full_ns = Obs.Metrics.histogram "integrity.check_full_ns"

let check g db =
  Obs.Trace.with_span m_check_full_ns @@ fun () ->
  List.concat_map (check_connection g db) (Schema_graph.connections g)

(* --- incremental (delta-driven) checking ------------------------------ *)

(* Observability: how aggressively the delta checker prunes. A fired
   check is one index lookup (or an inverse lookup plus re-checks); a
   pruned one is a connection the firing rule proved irrelevant. *)
let m_fired = Obs.Metrics.counter "integrity.delta_checks_fired"
let m_pruned = Obs.Metrics.counter "integrity.delta_checks_pruned"

let fires changed attrs =
  if changed attrs then begin
    Obs.Metrics.Counter.incr m_fired;
    true
  end
  else begin
    Obs.Metrics.Counter.incr m_pruned;
    false
  end

(* A tuple with a new stored image (inserted, or the after-image of a
   replace) can violate rule 1 in two roles: as the dependent end of an
   ownership/subset connection, or as the referencing end of a
   reference. Both are single index lookups. [changed] prunes
   connections whose connecting values the change did not alter: the
   old image satisfied rule 1 in the (consistent) pre-state, and a
   post-state breakage through unchanged values can only come from a
   change to the {e other} end — whose own inverse check re-verifies
   this tuple. *)
let check_new_image g db rel t ~changed acc =
  let acc =
    List.fold_left
      (fun acc (c : Connection.t) ->
        match c.kind with
        | Connection.Ownership | Connection.Subset ->
            if not (fires changed c.target_attrs) then acc
            else if has_source db c t then acc
            else orphan_violation c t :: acc
        | Connection.Reference -> acc)
      acc (Schema_graph.incoming g rel)
  in
  List.fold_left
    (fun acc (c : Connection.t) ->
      match c.kind with
      | Connection.Reference ->
          if not (fires changed c.source_attrs) then acc
          else if reference_resolves db c t then acc
          else dangling_violation c t :: acc
      | Connection.Ownership | Connection.Subset -> acc)
    acc (Schema_graph.outgoing g rel)

(* A tuple whose old image is gone (deleted, or the before-image of a
   replace) can strand {e other} tuples: dependents it owned and tuples
   that referenced it. These inverse checks find the candidates through
   the secondary index on the other end's connecting attributes, then
   re-verify each against the post-state (another tuple may still
   satisfy it). [changed] prunes connections whose connecting values
   the change did not actually alter. *)
let check_old_image g db rel t0 ~changed acc =
  let acc =
    List.fold_left
      (fun acc (c : Connection.t) ->
        match c.kind with
        | Connection.Ownership | Connection.Subset ->
            if not (fires changed c.source_attrs) then acc
            else
              let dependents =
                Relation.lookup_eq
                  (Database.relation_exn db c.target)
                  (List.map2
                     (fun x1 x2 -> x2, Tuple.get t0 x1)
                     c.source_attrs c.target_attrs)
              in
              List.fold_left
                (fun acc t2 ->
                  if has_source db c t2 then acc else orphan_violation c t2 :: acc)
                acc dependents
        | Connection.Reference -> acc)
      acc (Schema_graph.outgoing g rel)
  in
  List.fold_left
    (fun acc (c : Connection.t) ->
      match c.kind with
      | Connection.Reference ->
          if not (fires changed c.target_attrs) then acc
          else
            let referers =
              Relation.lookup_eq
                (Database.relation_exn db c.source)
                (List.map2
                   (fun x1 x2 -> x1, Tuple.get t0 x2)
                   c.source_attrs c.target_attrs)
            in
            List.fold_left
              (fun acc t1 ->
                if reference_resolves db c t1 then acc
                else dangling_violation c t1 :: acc)
              acc referers
      | Connection.Ownership | Connection.Subset -> acc)
    acc (Schema_graph.incoming g rel)

let violation_equal a b =
  Connection.equal a.connection b.connection
  && a.relation = b.relation
  && Tuple.equal a.tuple b.tuple

let dedup_violations vs =
  List.fold_left
    (fun acc v -> if List.exists (violation_equal v) acc then acc else v :: acc)
    [] vs
  |> List.rev

let m_check_delta_ns = Obs.Metrics.histogram "integrity.check_delta_ns"

let check_delta g db ~delta =
  Obs.Trace.with_span m_check_delta_ns @@ fun () ->
  let always _ = true in
  Delta.fold
    (fun rel change acc ->
      match change with
      | Delta.Added t -> check_new_image g db rel t ~changed:always acc
      | Delta.Removed t0 -> check_old_image g db rel t0 ~changed:always acc
      | Delta.Updated { before; after } ->
          let changed attrs =
            List.exists
              (fun a ->
                not (Value.equal (Tuple.get before a) (Tuple.get after a)))
              attrs
          in
          check_new_image g db rel after ~changed
            (check_old_image g db rel before ~changed acc))
    delta []
  |> dedup_violations

type reference_action =
  | Nullify
  | Delete_referencing
  | Restrict

type delete_policy = Connection.t -> reference_action

(* A victim set keyed by (relation, key). *)
module Victims = struct
  type entry = { rel : string; key : Value.t list; tuple : Tuple.t }

  let mem victims rel key =
    List.exists
      (fun e -> e.rel = rel && List.compare Value.compare e.key key = 0)
      victims
end

let key_of_in db rel t =
  Tuple.key_of (Relation.schema (Database.relation_exn db rel)) t

let tuples_connected_from db (c : Connection.t) t1 =
  Relation.lookup_eq
    (Database.relation_exn db c.target)
    (List.map2 (fun x1 x2 -> x2, Tuple.get t1 x1) c.source_attrs c.target_attrs)

let tuples_referencing db (c : Connection.t) t2 =
  Relation.lookup_eq
    (Database.relation_exn db c.source)
    (List.map2 (fun x1 x2 -> x1, Tuple.get t2 x2) c.source_attrs c.target_attrs)

let cascade_delete g db ~policy ~seeds =
  let ( let* ) = Result.bind in
  (* Phase 1: closure of deletions. Ownership/subset children of a victim
     are victims; referencing tuples become victims only under the
     Delete_referencing policy. *)
  let rec closure (victims : Victims.entry list) frontier =
    match frontier with
    | [] -> Ok victims
    | { Victims.rel; tuple; _ } :: rest ->
        let own_children =
          List.concat_map
            (fun (c : Connection.t) ->
              match c.kind with
              | Connection.Ownership | Connection.Subset ->
                  List.map (fun t -> c.target, t) (tuples_connected_from db c tuple)
              | Connection.Reference -> [])
            (Schema_graph.outgoing g rel)
        in
        let ref_children =
          List.concat_map
            (fun (c : Connection.t) ->
              match c.kind with
              | Connection.Reference when policy c = Delete_referencing ->
                  List.map (fun t -> c.source, t) (tuples_referencing db c tuple)
              | Connection.Reference | Connection.Ownership | Connection.Subset ->
                  [])
            (Schema_graph.incoming g rel)
        in
        let fresh =
          List.filter_map
            (fun (rel, tuple) ->
              let key = key_of_in db rel tuple in
              if Victims.mem victims rel key then None
              else Some { Victims.rel; key; tuple })
            (own_children @ ref_children)
        in
        (* Dedup within the fresh batch itself. *)
        let fresh =
          List.fold_left
            (fun acc (e : Victims.entry) ->
              if Victims.mem acc e.rel e.key then acc else acc @ [ e ])
            [] fresh
        in
        closure (victims @ fresh) (rest @ fresh)
  in
  let seed_entries =
    List.map
      (fun (rel, tuple) ->
        { Victims.rel; key = key_of_in db rel tuple; tuple })
      seeds
  in
  let seed_entries =
    List.fold_left
      (fun acc (e : Victims.entry) ->
        if Victims.mem acc e.rel e.key then acc else acc @ [ e ])
      [] seed_entries
  in
  let* victims = closure seed_entries seed_entries in
  (* Phase 2: fix up surviving referencing tuples (Nullify) or refuse
     (Restrict). *)
  let* fixups =
    List.fold_left
      (fun acc { Victims.rel; tuple; _ } ->
        let* ops = acc in
        List.fold_left
          (fun acc (c : Connection.t) ->
            let* ops = acc in
            if c.kind <> Connection.Reference then Ok ops
            else if policy c = Delete_referencing then Ok ops
            else
              let referers =
                List.filter
                  (fun t1 ->
                    not
                      (Victims.mem victims c.source (key_of_in db c.source t1)))
                  (tuples_referencing db c tuple)
              in
              if referers = [] then Ok ops
              else
                match policy c with
                | Restrict ->
                    Error
                      (Fmt.str
                         "deletion restricted: %d tuple(s) of %s still \
                          reference the deleted tuple(s) of %s (connection %s)"
                         (List.length referers) c.source c.target
                         (Connection.id c))
                | Nullify ->
                    let source_schema = Schema_graph.schema_exn g c.source in
                    if
                      List.exists
                        (Schema.is_key_attr source_schema)
                        c.source_attrs
                    then
                      Error
                        (Fmt.str
                           "cannot nullify reference %s: attributes %s belong \
                            to the key of %s"
                           (Connection.id c)
                           (String.concat "," c.source_attrs)
                           c.source)
                    else
                      let nullified t1 =
                        List.fold_left
                          (fun t a -> Tuple.set t a Value.Null)
                          t1 c.source_attrs
                      in
                      Ok
                        (ops
                        @ List.map
                            (fun t1 ->
                              Op.Replace
                                (c.source, key_of_in db c.source t1, nullified t1))
                            referers)
                | Delete_referencing -> Ok ops)
          (Ok ops) (Schema_graph.incoming g rel))
      (Ok []) victims
  in
  (* Several victims may nullify the same referencing tuple through
     different connections; merge replaces targeting the same key. *)
  let merged =
    List.fold_left
      (fun acc op ->
        match op with
        | Op.Replace (rel, key, t) -> (
            let same = function
              | Op.Replace (rel', key', _) ->
                  rel = rel' && List.compare Value.compare key key' = 0
              | Op.Insert _ | Op.Delete _ -> false
            in
            match List.find_opt same acc with
            | None -> acc @ [ op ]
            | Some (Op.Replace (_, _, t0)) ->
                List.map
                  (fun o -> if same o then Op.Replace (rel, key, Tuple.union t0 t) else o)
                  acc
            | Some (Op.Insert _ | Op.Delete _) -> acc @ [ op ])
        | Op.Insert _ | Op.Delete _ -> acc @ [ op ])
      [] fixups
  in
  let deletions =
    List.rev_map (fun { Victims.rel; key; _ } -> Op.Delete (rel, key)) victims
  in
  Ok (merged @ deletions)

(* Existence goes through {!has_source} and {!reference_resolves}, so
   the connection index serves it. A null connecting attribute matches
   no parent, as [Eq] against [Null] does in a selection. *)
let missing_dependencies g db rel t =
  (* rel as the dependent end of ownership/subset: needs its parent. *)
  List.filter_map
    (fun (c : Connection.t) ->
      match c.kind with
      | Connection.Ownership | Connection.Subset ->
          if has_source db c t then None
          else
            Some
              ( c,
                Tuple.make
                  (List.map2
                     (fun x1 x2 -> x1, Tuple.get t x2)
                     c.source_attrs c.target_attrs) )
      | Connection.Reference -> None)
    (Schema_graph.incoming g rel)
  (* rel as the referencing end: non-null references must resolve. *)
  @ List.filter_map
      (fun (c : Connection.t) ->
        match c.kind with
        | Connection.Reference ->
            if reference_resolves db c t then None
            else
              Some
                ( c,
                  Tuple.make
                    (List.map2
                       (fun x1 x2 -> x2, Tuple.get t x1)
                       c.source_attrs c.target_attrs) )
        | Connection.Ownership | Connection.Subset -> None)
      (Schema_graph.outgoing g rel)

let key_replacement_fixups g db ~relation ~old_tuple ~new_tuple ~exclude =
  (* Recursive propagation of connecting-attribute changes (rules 3 of
     Defs. 2.2-2.4). The [seen] set guards against cycles in the schema
     graph. *)
  let rec go seen relation old_tuple new_tuple =
    let changed attrs =
      List.exists
        (fun a ->
          not (Value.equal (Tuple.get old_tuple a) (Tuple.get new_tuple a)))
        attrs
    in
    let tag = Fmt.str "%s/%a" relation Tuple.pp old_tuple in
    if List.mem tag seen then []
    else
      let seen = tag :: seen in
      (* Owned / subset tuples inherit through (X1 -> X2). *)
      let downward =
        List.concat_map
          (fun (c : Connection.t) ->
            match c.kind with
            | Connection.Ownership | Connection.Subset ->
                if exclude c.target || not (changed c.source_attrs) then []
                else
                  List.concat_map
                    (fun child ->
                      let child' =
                        List.fold_left2
                          (fun t x1 x2 -> Tuple.set t x2 (Tuple.get new_tuple x1))
                          child c.source_attrs c.target_attrs
                      in
                      Op.Replace (c.target, key_of_in db c.target child, child')
                      :: go seen c.target child child')
                    (tuples_connected_from db c old_tuple)
            | Connection.Reference -> [])
          (Schema_graph.outgoing g relation)
      in
      (* Referencing tuples rewrite X1 to the new key (X2) values. *)
      let referencing =
        List.concat_map
          (fun (c : Connection.t) ->
            if c.kind <> Connection.Reference then []
            else if exclude c.source || not (changed c.target_attrs) then []
            else
              List.concat_map
                (fun t1 ->
                  let t1' =
                    List.fold_left2
                      (fun t x1 x2 -> Tuple.set t x1 (Tuple.get new_tuple x2))
                      t1 c.source_attrs c.target_attrs
                  in
                  Op.Replace (c.source, key_of_in db c.source t1, t1')
                  :: go seen c.source t1 t1')
                (tuples_referencing db c old_tuple))
          (Schema_graph.incoming g relation)
      in
      downward @ referencing
  in
  go [] relation old_tuple new_tuple
