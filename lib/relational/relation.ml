module Key = struct
  type t = Value.t list

  let compare = List.compare Value.compare
end

module KMap = Map.Make (Key)
module VMap = Map.Make (Key)

(* A secondary index: normalized attribute list plus a map from attribute
   values to the primary keys of the tuples carrying them. *)
type index = {
  attrs : string list;  (** sorted *)
  entries : Key.t list VMap.t;  (** values (in [attrs] order) -> keys *)
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
  let existing = Option.value (VMap.find_opt vs ix.entries) ~default:[] in
  { ix with entries = VMap.add vs (key :: existing) ix.entries }

let index_remove ix key t =
  let vs = index_values ix t in
  match VMap.find_opt vs ix.entries with
  | None -> ix
  | Some keys -> (
      match List.filter (fun k -> Key.compare k key <> 0) keys with
      | [] -> { ix with entries = VMap.remove vs ix.entries }
      | keys -> { ix with entries = VMap.add vs keys ix.entries })

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
          if Key.compare old_key new_key <> 0 && KMap.mem new_key r.tuples then
            Error (Duplicate_key new_key)
          else
            let tuples = KMap.add new_key t (KMap.remove old_key r.tuples) in
            Ok
              (after_insert new_key t
                 (after_delete old_key old_t { r with tuples })))

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

let select p r =
  match Predicate.fixed_key (Schema.key_attributes r.schema) p with
  | Some k -> (
      match KMap.find_opt k r.tuples with
      | Some t when Predicate.eval p t -> [ t ]
      | Some _ | None -> [])
  | None -> List.filter (fun t -> Predicate.eval p t) (to_list r)

(* --- secondary indexes ------------------------------------------------ *)

let normalize_attrs attrs = List.sort_uniq String.compare attrs

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
        let fresh = { attrs; entries = VMap.empty } in
        let fresh =
          KMap.fold (fun key t ix -> index_add ix key t) r.tuples fresh
        in
        let others = List.filter (fun ix -> ix.attrs <> attrs) r.idx in
        Ok { r with idx = fresh :: others }

let has_index r attrs =
  let attrs = normalize_attrs attrs in
  List.exists (fun ix -> ix.attrs = attrs) r.idx

let indexes r = List.map (fun ix -> ix.attrs) r.idx

let lookup_eq r bindings =
  if List.exists (fun (_, v) -> Value.is_null v) bindings then []
  else
    let attrs = normalize_attrs (List.map fst bindings) in
    match List.find_opt (fun ix -> ix.attrs = attrs) r.idx with
    | Some ix ->
        let vs = List.map (fun a -> List.assoc a bindings) ix.attrs in
        let keys = List.sort_uniq Key.compare
            (Option.value (VMap.find_opt vs ix.entries) ~default:[]) in
        List.filter_map (fun k -> KMap.find_opt k r.tuples) keys
    | None ->
        select
          (Predicate.conj
             (List.map (fun (a, v) -> Predicate.Cmp (a, Predicate.Eq, v)) bindings))
          r

let of_list schema ts =
  List.fold_left
    (fun acc t -> Result.bind acc (fun r -> insert r t))
    (Ok (empty schema)) ts

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
