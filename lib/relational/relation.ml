module Key = struct
  type t = Value.t list

  let compare = List.compare Value.compare
end

module KMap = Map.Make (Key)
module VMap = Map.Make (Key)
module KSet = Set.Make (Key)

(* A secondary index: normalized attribute list plus a map from attribute
   values to the set of primary keys of the tuples carrying them. *)
type index = {
  attrs : string list;  (** sorted *)
  entries : KSet.t VMap.t;  (** values (in [attrs] order) -> keys *)
}

type t = {
  schema : Schema.t;
  tuples : Tuple.t KMap.t;
  idx : index list;
}

type error =
  | Duplicate_key of Value.t list
  | No_such_key of Value.t list
  | Nonconforming of string

let pp_error ppf = function
  | Duplicate_key k ->
      Fmt.pf ppf "duplicate key (%a)" Fmt.(list ~sep:(any ", ") Value.pp) k
  | No_such_key k ->
      Fmt.pf ppf "no such key (%a)" Fmt.(list ~sep:(any ", ") Value.pp) k
  | Nonconforming msg -> Fmt.string ppf msg

let error_to_string e = Fmt.str "%a" pp_error e

let empty schema = { schema; tuples = KMap.empty; idx = [] }
let schema r = r.schema
let name r = r.schema.Schema.name
let cardinality r = KMap.cardinal r.tuples
let is_empty r = KMap.is_empty r.tuples
let key_of r t = Tuple.key_of r.schema t

(* Bind every declared attribute, padding missing nonkey attributes with
   Null so that stored tuples always have the full schema width. *)
let pad schema t = Tuple.project_null (Schema.attribute_names schema) t

(* --- index maintenance ------------------------------------------------ *)

let index_values ix t = List.map (Tuple.get t) ix.attrs

let index_add ix key t =
  let vs = index_values ix t in
  let existing = Option.value (VMap.find_opt vs ix.entries) ~default:KSet.empty in
  { ix with entries = VMap.add vs (KSet.add key existing) ix.entries }

let index_remove ix key t =
  let vs = index_values ix t in
  match VMap.find_opt vs ix.entries with
  | None -> ix
  | Some keys ->
      let keys = KSet.remove key keys in
      if KSet.is_empty keys then { ix with entries = VMap.remove vs ix.entries }
      else { ix with entries = VMap.add vs keys ix.entries }

let with_indexes f r = { r with idx = List.map f r.idx }

let after_insert key t r = with_indexes (fun ix -> index_add ix key t) r

let after_delete key t r = with_indexes (fun ix -> index_remove ix key t) r

(* --- core operations -------------------------------------------------- *)

let insert r t =
  let t = pad r.schema t in
  match Tuple.conforms r.schema t with
  | Error msg -> Error (Nonconforming msg)
  | Ok () ->
      let k = key_of r t in
      if KMap.mem k r.tuples then Error (Duplicate_key k)
      else Ok (after_insert k t { r with tuples = KMap.add k t r.tuples })

let delete_key r k =
  match KMap.find_opt k r.tuples with
  | Some t -> Ok (after_delete k t { r with tuples = KMap.remove k r.tuples })
  | None -> Error (No_such_key k)

let delete_tuple r t = delete_key r (key_of r t)

let replace r ~old_key t =
  let t = pad r.schema t in
  match Tuple.conforms r.schema t with
  | Error msg -> Error (Nonconforming msg)
  | Ok () -> (
      match KMap.find_opt old_key r.tuples with
      | None -> Error (No_such_key old_key)
      | Some old_t ->
          let new_key = key_of r t in
          let same_key = Key.compare old_key new_key = 0 in
          if (not same_key) && KMap.mem new_key r.tuples then
            Error (Duplicate_key new_key)
          else
            let tuples =
              if same_key then KMap.add new_key t r.tuples
              else KMap.add new_key t (KMap.remove old_key r.tuples)
            in
            (* An index whose values the replace keeps, under the same
               key, stays as it was: a grade change touches no posting
               set. *)
            let reindex ix =
              if
                same_key
                && Key.compare (index_values ix old_t) (index_values ix t) = 0
              then ix
              else index_add (index_remove ix old_key old_t) new_key t
            in
            Ok { r with tuples; idx = List.map reindex r.idx })

let lookup r k = KMap.find_opt k r.tuples
let mem_key r k = KMap.mem k r.tuples

let mem_tuple r t =
  let t = pad r.schema t in
  match lookup r (key_of r t) with
  | Some t' -> Tuple.equal t t'
  | None -> false

let find_matching r t = lookup r (key_of r t)

let fold f r init = KMap.fold (fun _ t acc -> f t acc) r.tuples init
let iter f r = KMap.iter (fun _ t -> f t) r.tuples
let to_list r = List.rev (fold (fun t acc -> t :: acc) r [])

(* [Some candidate] when [p] fixes the whole primary key: the one tuple
   that can satisfy it is found by lookup, not by a scan. *)
let keyed_candidate p r =
  Predicate.fixed_key (Schema.key_attributes r.schema) p
  |> Option.map (fun k -> KMap.find_opt k r.tuples)

let select p r =
  match keyed_candidate p r with
  | Some (Some t) when Predicate.eval p t -> [ t ]
  | Some _ -> []
  | None -> List.filter (fun t -> Predicate.eval p t) (to_list r)

let exists p r =
  match keyed_candidate p r with
  | Some candidate -> Option.fold ~none:false ~some:(Predicate.eval p) candidate
  | None -> KMap.exists (fun _ t -> Predicate.eval p t) r.tuples

(* --- secondary indexes ------------------------------------------------ *)

let normalize_attrs attrs = List.sort_uniq String.compare attrs

(* Groups tuples by their indexed values in a hash table, so the bulk
   build copies no map path per tuple. The hash agrees with
   [Key.compare]: [Value.compare] equates only values of one constructor,
   and [Hashtbl.hash] maps -0.0 to 0.0 and every NaN to one, as
   [Float.compare] equates them. *)
module VTbl = Hashtbl.Make (struct
  type t = Key.t

  let equal a b = Key.compare a b = 0
  let hash = Hashtbl.hash
end)

(* One pass over the key-ordered tuples collects each posting list (in
   descending key order); each set is then built whole, not key by key. *)
let build_index r attrs =
  let groups = VTbl.create 64 in
  KMap.iter
    (fun key t ->
      let vs = List.map (Tuple.get t) attrs in
      VTbl.replace groups vs
        (key :: Option.value (VTbl.find_opt groups vs) ~default:[]))
    r.tuples;
  let entries =
    VTbl.fold (fun vs keys acc -> VMap.add vs (KSet.of_list keys) acc) groups VMap.empty
  in
  { attrs; entries }

let create_index r attrs =
  let attrs = normalize_attrs attrs in
  if attrs = [] then Error (Nonconforming "create_index: empty attribute list")
  else
    match List.find_opt (fun a -> not (Schema.mem r.schema a)) attrs with
    | Some a ->
        Error
          (Nonconforming
             (Fmt.str "create_index on %s: unknown attribute %s" (name r) a))
    | None ->
        let fresh = build_index r attrs in
        let others = List.filter (fun ix -> ix.attrs <> attrs) r.idx in
        Ok { r with idx = fresh :: others }

let has_index r attrs =
  let attrs = normalize_attrs attrs in
  List.exists (fun ix -> ix.attrs = attrs) r.idx

let indexes r = List.map (fun ix -> ix.attrs) r.idx

(* The index over exactly the bound attributes, with the bound values in
   its attribute order. *)
let find_index r bindings =
  let attrs = normalize_attrs (List.map fst bindings) in
  List.find_opt (fun ix -> ix.attrs = attrs) r.idx
  |> Option.map (fun ix -> ix, List.map (fun a -> List.assoc a bindings) ix.attrs)

let eq_predicate bindings =
  Predicate.conj
    (List.map (fun (a, v) -> Predicate.Cmp (a, Predicate.Eq, v)) bindings)

let lookup_eq r bindings =
  if List.exists (fun (_, v) -> Value.is_null v) bindings then []
  else
    match find_index r bindings with
    | Some (ix, vs) -> (
        match VMap.find_opt vs ix.entries with
        | None -> []
        | Some keys ->
            List.filter_map (fun k -> KMap.find_opt k r.tuples) (KSet.elements keys))
    | None -> select (eq_predicate bindings) r

let exists_eq r bindings =
  (not (List.exists (fun (_, v) -> Value.is_null v) bindings))
  &&
  match find_index r bindings with
  | Some (ix, vs) -> (
      match VMap.find_opt vs ix.entries with
      | None -> false
      | Some keys -> KSet.exists (fun k -> KMap.mem k r.tuples) keys)
  | None -> exists (eq_predicate bindings) r

let insert_all r ts =
  List.fold_left
    (fun acc t -> Result.bind acc (fun r -> insert r t))
    (Ok { r with idx = [] }) ts
  |> Result.map (fun bare ->
         { bare with idx = List.map (fun ix -> build_index bare ix.attrs) r.idx })

let of_list schema ts = insert_all (empty schema) ts

let of_list_exn schema ts =
  match of_list schema ts with
  | Ok r -> r
  | Error e -> invalid_arg (Fmt.str "%s: %a" schema.Schema.name pp_error e)

(* Indexes are derived state and do not participate in equality. *)
let equal a b =
  Schema.equal a.schema b.schema && KMap.equal Tuple.equal a.tuples b.tuples

let pp ppf r =
  Fmt.pf ppf "@[<v>%a@,%a@]" Schema.pp r.schema
    Fmt.(list ~sep:cut Tuple.pp)
    (to_list r)
