open Relational
open Structural
open Viewobject

let ( let* ) = Result.bind

type walk_state = {
  db : Database.t;  (** simulated: reflects ops emitted so far *)
  ops : Op.t list;  (** main sequence, in emission order *)
  deferred : Op.t list;  (** peninsula value rewrites, applied after fix-ups *)
  key_replacements : (string * Tuple.t * Tuple.t) list;
      (** island (relation, old full tuple, new full tuple) with changed keys *)
}

let apply_op st op =
  match Database.apply st.db op with
  | Ok db -> Ok { st with db; ops = st.ops @ [ op ] }
  | Error e ->
      Error (Fmt.str "vo-r: op %a failed: %s" Op.pp op (Database.error_to_string e))

let last_edge (dn : Definition.node) =
  match List.rev dn.Definition.path with
  | [] -> None
  | e :: _ -> Some e

(* A node whose instances reference their parent (inverse reference
   edge). When the parent relation is in the island this is exactly a
   referencing-peninsula node. *)
let is_inverse_reference dn =
  match last_edge dn with
  | Some { Schema_graph.conn; forward = false }
    when conn.Connection.kind = Connection.Reference -> true
  | _ -> false

let keys_equal k1 k2 = List.compare Value.compare k1 k2 = 0

let tuple_of (i : Instance.t) = i.Instance.tuple

let apply_ops st ops =
  List.fold_left
    (fun state op ->
      let* st = state in
      apply_op st op)
    (Ok st) ops

let translate g db (vo : Definition.t) spec ~old_instance ~new_instance =
  if not spec.Translator_spec.allow_replacement then
    Error
      (Fmt.str
         "translator for %s does not allow replacement of tuples in an \
          object instance"
         spec.Translator_spec.object_name)
  else
    let* () = Instance.conforms vo old_instance in
    let* () = Instance.conforms vo new_instance in
    (* Step 2, propagation within the view object: extending both
       instances rewrites every node's inherited attributes from its
       (new) parent, which realizes the downward propagation of the Aⱼ
       key complements. *)
    let* old_ext = Instantiate.extend_inherited g vo old_instance in
    let* new_ext = Instantiate.extend_inherited g vo new_instance in
    let island = Island.island_labels vo in
    let original_db = db in

    let rec process_pair (dn : Definition.node) st
        (pair : Instance.t option * Instance.t option) =
      match pair with
      | None, None -> Ok st
      | None, Some n ->
          (* A sub-instance met only in the new instance is VO-CI's
             insertion against the simulated database. *)
          let* db, ops = Vo_ci.insert_extended g st.db spec ~island n in
          Ok { st with db; ops = st.ops @ ops }
      | Some o, None ->
          if List.mem dn.Definition.label island then
            (* A dropped island sub-instance is VO-CD's island cascade. *)
            let* cascade = Vo_cd.island_cascade g original_db spec ~island o in
            apply_ops st cascade
          else
            (* Outside the island the old tuple is shared data; dropping
               it from the instance touches nothing. *)
            Ok st
      | Some o, Some n ->
          let in_island = List.mem dn.Definition.label island in
          let* st =
            if in_island then state_r dn st o n
            else state_i dn st o n
          in
          (* Descend: pair each child node's sub-instances. *)
          List.fold_left
            (fun state (cn : Definition.node) ->
              let* st = state in
              let pairs =
                Instance_db.node_pairs cn
                  ~old_subs:(Instance.children_of o cn.Definition.label)
                  ~new_subs:(Instance.children_of n cn.Definition.label)
              in
              List.fold_left
                (fun state pair ->
                  let* st = state in
                  process_pair cn st pair)
                (Ok st) pairs)
            (Ok st) dn.Definition.children

    and state_r (dn : Definition.node) st (o : Instance.t) (n : Instance.t) =
      let rel = dn.Definition.relation in
      let* db_old =
        Instance_db.verify_current g original_db ~label:o.Instance.label rel
          (tuple_of o)
      in
      if Tuple.equal (tuple_of o) (tuple_of n) then (* Case R-1 *) Ok st
      else
        let* old_key = Instance_db.db_key g rel (tuple_of o) in
        let* new_key = Instance_db.db_key g rel (tuple_of n) in
        if keys_equal old_key new_key then
          (* Case R-2: plain replacement. *)
          apply_op st
            (Op.Replace (rel, old_key, Instance_db.merged ~base:db_old (tuple_of n)))
        else begin
          (* Case R-3: key replacement, island only. *)
          let policy = Translator_spec.key_policy_for spec rel in
          if not policy.Translator_spec.allow_vo_key_change then
            Error
              (Fmt.str
                 "node %s: the key of relation %s may not be modified during \
                  replacements"
                 o.Instance.label rel)
          else if not policy.Translator_spec.allow_db_key_replace then
            Error
              (Fmt.str
                 "node %s: replacing the key of the database tuple of %s is \
                  not allowed"
                 o.Instance.label rel)
          else
            let* existing = Instance_db.lookup g st.db rel (tuple_of n) in
            let* merged, ops =
              match existing with
              | None ->
                  let merged = Instance_db.merged ~base:db_old (tuple_of n) in
                  Ok (merged, [ Op.Replace (rel, old_key, merged) ])
              | Some _ when not policy.Translator_spec.allow_merge_with_existing ->
                  Error
                    (Fmt.str
                       "node %s: a tuple of %s with the new key already \
                        exists, and deleting the old tuple to merge with it \
                        is not allowed"
                       o.Instance.label rel)
              | Some existing_tuple ->
                  let merged =
                    Instance_db.merged ~base:existing_tuple (tuple_of n)
                  in
                  Ok
                    ( merged,
                      [ Op.Delete (rel, old_key); Op.Replace (rel, new_key, merged) ] )
            in
            let* st = apply_ops st ops in
            Ok
              {
                st with
                key_replacements = st.key_replacements @ [ rel, db_old, merged ];
              }
        end

    and state_i (dn : Definition.node) st (o : Instance.t) (n : Instance.t) =
      let rel = dn.Definition.relation in
      let label = o.Instance.label in
      let* old_key = Instance_db.db_key g rel (tuple_of o) in
      let* new_key = Instance_db.db_key g rel (tuple_of n) in
      if keys_equal old_key new_key then
        (* Case I-1: handle as state R, gated by the modification policy
           of the outside relation. *)
        if Tuple.equal (tuple_of o) (tuple_of n) then Ok st
        else
          let* () = Vo_ci.permit spec ~label rel `Modify in
          let* db_old =
            Instance_db.verify_current g original_db ~label rel (tuple_of o)
          in
          apply_op st
            (Op.Replace (rel, old_key, Instance_db.merged ~base:db_old (tuple_of n)))
      else if is_inverse_reference dn then begin
        (* The node's tuples reference their parent. Changes to the own
           part of the key are the prohibited peninsula key replacement;
           changes to the inherited part are consequences of a parent key
           change and are realized by the structural fix-ups. *)
        let inherited = Definition.inherited_attrs dn in
        let own_changed attrs =
          List.exists
            (fun a ->
              (not (List.mem a inherited))
              && not
                   (Value.equal
                      (Tuple.get (tuple_of o) a)
                      (Tuple.get (tuple_of n) a)))
            attrs
        in
        if own_changed (Schema.key_attributes (Schema_graph.schema_exn g rel))
        then
          Error
            (Fmt.str
               "node %s: replacements on keys of referencing relation %s are \
                inherently ambiguous and hence prohibited"
               label rel)
        else if not (own_changed (Tuple.attributes (tuple_of o))) then Ok st
        else
          (* Inherited key parts and non-key values changed: the values
             are applied after the fix-ups have moved the tuple to its
             new key. *)
          let* () = Vo_ci.permit spec ~label rel `Modify in
          let* db_old =
            Instance_db.verify_current g original_db ~label rel (tuple_of o)
          in
          let merged = Instance_db.merged ~base:db_old (tuple_of n) in
          Ok { st with deferred = st.deferred @ [ Op.Replace (rel, new_key, merged) ] }
      end
      else
        (* Cases I-2 / I-3 / I-4 are VO-CI's cases on the new tuple. *)
        let* op =
          Vo_ci.case_op g st.db spec ~in_island:false ~label rel (tuple_of n)
        in
        apply_ops st (Option.to_list op)
    in

    let st0 = { db; ops = []; deferred = []; key_replacements = [] } in
    let* st = process_pair vo.Definition.root st0 (Some old_ext, Some new_ext) in
    (* Validation against the structural model: island key replacements
       propagate to referencing relations (the peninsulas included) and
       to owned/subset relations outside the object. *)
    let island_rels = Island.island_relations vo in
    let fixups =
      List.concat_map
        (fun (rel, old_tuple, new_tuple) ->
          Integrity.key_replacement_fixups g original_db ~relation:rel
            ~old_tuple ~new_tuple
            ~exclude:(fun r -> List.mem r island_rels))
        st.key_replacements
    in
    Global_validation.dependency_closure g db spec
      (st.ops @ fixups @ st.deferred)
