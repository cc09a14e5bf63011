open Structural
open Viewobject

let ( let* ) = Result.bind

(* Collect the island tuples of [inst] as deletion seeds, verifying each
   against the database as we go, and close them under cascade deletion. *)
let island_cascade g db spec ~island (inst : Instance.t) =
  let rec collect (i : Instance.t) =
    if not (List.mem i.Instance.label island) then Ok []
    else
      let* db_tuple =
        Instance_db.verify_current g db ~label:i.Instance.label
          i.Instance.relation i.Instance.tuple
      in
      let* below =
        List.fold_left
          (fun acc (_, subs) ->
            List.fold_left
              (fun acc sub ->
                let* sofar = acc in
                let* more = collect sub in
                Ok (sofar @ more))
              acc subs)
          (Ok []) i.Instance.children
      in
      Ok ((i.Instance.relation, db_tuple) :: below)
  in
  let* seeds = collect inst in
  Integrity.cascade_delete g db ~policy:(Translator_spec.delete_policy spec)
    ~seeds

let translate g db (vo : Definition.t) spec inst =
  if not spec.Translator_spec.allow_deletion then
    Error
      (Fmt.str "translator for %s does not allow complete deletions"
         spec.Translator_spec.object_name)
  else
    let* () = Instance.conforms vo inst in
    let* extended = Instantiate.extend_inherited g vo inst in
    island_cascade g db spec ~island:(Island.island_labels vo) extended
