open Relational
open Structural

let connected_via (e : Schema_graph.edge) db t =
  let from_attrs = Schema_graph.edge_from_attrs e in
  let to_attrs = Schema_graph.edge_to_attrs e in
  (* Equality lookup: served by a secondary index on the connecting
     attributes when one exists. *)
  Relation.lookup_eq
    (Database.relation_exn db (Schema_graph.edge_to e))
    (List.map2 (fun fa ta -> ta, Tuple.get t fa) from_attrs to_attrs)

module KeySet = Set.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

let dedup_by_key schema ts =
  let rec go seen acc = function
    | [] -> List.rev acc
    | t :: rest ->
        let k = Tuple.key_of schema t in
        if KeySet.mem k seen then go seen acc rest
        else go (KeySet.add k seen) (t :: acc) rest
  in
  go KeySet.empty [] ts

let follow_path db path t =
  match path with
  | [] -> [ t ]
  (* One relation's lookup already returns distinct keys. *)
  | [ e ] -> connected_via e db t
  | _ ->
      let finals =
        List.fold_left
          (fun ts e -> List.concat_map (connected_via e db) ts)
          [ t ] path
      in
      let last = List.nth path (List.length path - 1) in
      let schema =
        Relation.schema (Database.relation_exn db (Schema_graph.edge_to last))
      in
      dedup_by_key schema finals

let of_pivot_tuple db (vo : Definition.t) pivot_tuple =
  let rec build (dn : Definition.node) full_tuple =
    let children =
      List.map
        (fun (cn : Definition.node) ->
          let subs = follow_path db cn.path full_tuple in
          cn.label, List.map (build cn) subs)
        dn.children
    in
    Instance.make ~label:dn.label ~relation:dn.relation
      ~tuple:(Tuple.project dn.attrs full_tuple)
      ~children
  in
  build vo.root pivot_tuple

let instantiate ?(where = Predicate.True) db (vo : Definition.t) =
  let pivot_rel = Database.relation_exn db vo.pivot in
  List.map (of_pivot_tuple db vo) (Relation.select where pivot_rel)

let extend_inherited _g (vo : Definition.t) inst =
  let fail fmt = Fmt.kstr (fun m -> Error m) fmt in
  let ( let* ) = Result.bind in
  (* Linkage values flow in both directions. Downward: a child inherits
     the connecting attributes bound in its (extended) parent. Upward: a
     parent whose connecting attributes were projected out (typical for a
     forward reference from the pivot, e.g. COURSES.dept_name under ω)
     recovers them from the child's side of the connection — the nesting
     itself expresses the linkage. *)
  let edge_of (cn : Definition.node) =
    match cn.path with
    | [ e ] -> Ok e
    | [] -> fail "extend_inherited: node %s has no connection path" cn.label
    | _ :: _ :: _ ->
        fail
          "extend_inherited: node %s is attached by a multi-connection path; \
           updates require direct connections"
          cn.label
  in
  let rec go (dn : Definition.node) parent_tuple (i : Instance.t) =
    (* Phase 1: this node's inherited attributes from the parent. *)
    let* tuple =
      match dn.path, parent_tuple with
      | [], _ -> Ok i.Instance.tuple
      | _, None -> fail "extend_inherited: node %s has a path but no parent" dn.label
      | _, Some pt ->
          let* e = edge_of dn in
          let from_attrs = Schema_graph.edge_from_attrs e in
          let to_attrs = Schema_graph.edge_to_attrs e in
          Ok
            (List.fold_left2
               (fun t fa ta ->
                 let v = Tuple.get pt fa in
                 if Value.is_null v then t else Tuple.set t ta v)
               i.Instance.tuple from_attrs to_attrs)
    in
    (* Phase 2: lift connecting values from children whose side of the
       connection is bound while ours is not. Conflicting contributions
       (two sub-instances implying different values) are an error. *)
    let* tuple, _lifted =
      List.fold_left
        (fun acc (cn : Definition.node) ->
          let* t, lifted = acc in
          let* e = edge_of cn in
          let from_attrs = Schema_graph.edge_from_attrs e in
          let to_attrs = Schema_graph.edge_to_attrs e in
          List.fold_left
            (fun acc (sub : Instance.t) ->
              let* t, lifted = acc in
              List.fold_left2
                (fun acc fa ta ->
                  let* t, lifted = acc in
                  let child_v = Tuple.get sub.Instance.tuple ta in
                  if Value.is_null child_v then Ok (t, lifted)
                  else
                    let own_v = Tuple.get t fa in
                    if Value.is_null own_v then
                      Ok (Tuple.set t fa child_v, fa :: lifted)
                    else if Value.equal own_v child_v then Ok (t, lifted)
                    else if not (List.mem fa lifted) then
                      (* Bound at this node or inherited from above: the
                         downward propagation wins and will overwrite the
                         child's stale binding during recursion. *)
                      Ok (t, lifted)
                    else
                      fail
                        "extend_inherited: node %s: conflicting values for %s \
                         from child %s"
                        dn.label fa cn.label)
                (Ok (t, lifted)) from_attrs to_attrs)
            (Ok (t, lifted))
            (Instance.children_of i cn.label))
        (Ok (tuple, [])) dn.children
    in
    (* Phase 3: recurse with the completed tuple. *)
    let* children =
      List.fold_left
        (fun acc (cn : Definition.node) ->
          let* done_children = acc in
          let subs = Instance.children_of i cn.label in
          let* subs' =
            List.fold_left
              (fun acc sub ->
                let* ss = acc in
                let* s' = go cn (Some tuple) sub in
                Ok (s' :: ss))
              (Ok []) subs
          in
          Ok (done_children @ [ cn.label, List.rev subs' ]))
        (Ok []) dn.children
    in
    Ok (Instance.make ~label:i.Instance.label ~relation:i.Instance.relation ~tuple ~children)
  in
  go vo.root None inst

let full_key g (vo : Definition.t) label tuple =
  let fail fmt = Fmt.kstr (fun m -> Error m) fmt in
  match Definition.find vo label with
  | None -> fail "full_key: no node %s in view object %s" label vo.name
  | Some dn ->
      let schema = Schema_graph.schema_exn g dn.relation in
      let key = Schema.key_attributes schema in
      (match
         List.find_opt (fun k -> Value.is_null (Tuple.get tuple k)) key
       with
      | Some k ->
          fail "full_key: node %s: key attribute %s is unbound or null" label k
      | None -> Ok (List.map (Tuple.get tuple) key))
