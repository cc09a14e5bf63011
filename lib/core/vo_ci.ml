open Relational
open Viewobject

let ( let* ) = Result.bind

let permit spec ~label relation action =
  let policy = Translator_spec.modification_policy_for spec relation in
  let allowed, doing =
    match action with
    | `Insert -> policy.Translator_spec.allow_insert, "inserting a new tuple into"
    | `Modify -> policy.Translator_spec.allow_modify, "modifying the existing tuple in"
  in
  if policy.Translator_spec.modifiable && allowed then Ok ()
  else
    Error
      (Fmt.str "node %s: %s %s is not allowed by the translator" label doing
         relation)

(* Classify one extended instance tuple against the (simulated) database
   and emit the VO-CI case op. [db] already reflects earlier ops of the
   same request, so two sub-instances inserting the same outside tuple
   fall into case 1 the second time. *)
let case_op g db spec ~in_island ~label relation tuple =
  let* existing = Instance_db.lookup g db relation tuple in
  match existing with
  | None ->
      (* Case 2: insert. Island relations are the new entity itself and
         are always insertable; outside relations need permission. *)
      let* () = if in_island then Ok () else permit spec ~label relation `Insert in
      Ok (Some (Op.Insert (relation, tuple)))
  | Some db_tuple ->
      let identical =
        List.for_all
          (fun (a, v) -> Value.equal v (Tuple.get db_tuple a))
          (Tuple.bindings tuple)
      in
      if identical then
        (* Case 1. *)
        if in_island then
          Error
            (Fmt.str
               "node %s: an identical tuple already exists in island relation \
                %s — the instance cannot be inserted"
               label relation)
        else Ok None
      else if in_island then
        (* Case 3, island side: reject. *)
        Error
          (Fmt.str
             "node %s: a tuple with the same key but different values exists \
              in island relation %s"
             label relation)
      else
        (* Case 3, outside: replacement when permitted. *)
        let* () = permit spec ~label relation `Modify in
        let* key = Instance_db.db_key g relation tuple in
        Ok (Some (Op.Replace (relation, key, Instance_db.merged ~base:db_tuple tuple)))

(* Walk an extended (sub-)instance, applying each tuple's case op to the
   simulated database before the next tuple is classified. *)
let insert_extended g db spec ~island (inst : Instance.t) =
  let rec walk (i : Instance.t) state =
    let* db, ops = state in
    let in_island = List.mem i.Instance.label island in
    let* op =
      case_op g db spec ~in_island ~label:i.Instance.label i.Instance.relation
        i.Instance.tuple
    in
    let* db, ops =
      match op with
      | None -> Ok (db, ops)
      | Some op -> (
          match Database.apply db op with
          | Ok db' -> Ok (db', ops @ [ op ])
          | Error e ->
              Error
                (Fmt.str "node %s: %s" i.Instance.label
                   (Database.error_to_string e)))
    in
    List.fold_left
      (fun state (_, subs) ->
        List.fold_left (fun state sub -> walk sub state) state subs)
      (Ok (db, ops))
      i.Instance.children
  in
  walk inst (Ok (db, []))

let translate g db (vo : Definition.t) spec inst =
  if not spec.Translator_spec.allow_insertion then
    Error
      (Fmt.str "translator for %s does not allow complete insertions"
         spec.Translator_spec.object_name)
  else
    let* () = Instance.conforms vo inst in
    let* extended = Instantiate.extend_inherited g vo inst in
    let* _db, ops =
      insert_extended g db spec ~island:(Island.island_labels vo) extended
    in
    Global_validation.dependency_closure g db spec ops
