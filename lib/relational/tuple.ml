module M = Map.Make (String)
module SSet = Set.Make (String)

type t = Value.t M.t

let empty = M.empty

let make bindings =
  List.fold_left (fun m (k, v) -> M.add k v m) M.empty bindings

let get t n = match M.find_opt n t with Some v -> v | None -> Value.Null
let get_opt t n = M.find_opt n t
let mem t n = M.mem n t
let set t n v = M.add n v t
let remove t n = M.remove n t
let attributes t = List.map fst (M.bindings t)
let bindings t = M.bindings t
let iter f t = M.iter f t
let cardinal t = M.cardinal t

let union a b = M.union (fun _ _ vb -> Some vb) a b

let project keep t =
  let keep = SSet.of_list keep in
  M.filter (fun n _ -> SSet.mem n keep) t

let project_null keep t =
  List.fold_left (fun m n -> M.add n (get t n) m) M.empty keep

let rename_attrs renames t =
  M.fold
    (fun n v acc ->
      let n' = match List.assoc_opt n renames with Some n' -> n' | None -> n in
      M.add n' v acc)
    t M.empty

let equal = M.equal Value.equal
let compare = M.compare Value.compare

let equal_on attrs a b =
  List.for_all (fun n -> Value.equal (get a n) (get b n)) attrs

let key_of schema t = List.map (get t) (Schema.key_attributes schema)
let values_of attrs t = List.map (get t) attrs

let conforms schema t =
  let names = Schema.attribute_names schema in
  match List.find_opt (fun n -> not (List.mem n names)) (attributes t) with
  | Some n ->
      Error (Fmt.str "tuple does not conform to %s: extra attribute %s"
               schema.Schema.name n)
  | None ->
      let bad_domain =
        List.find_opt
          (fun (a : Attribute.t) -> not (Value.conforms a.domain (get t a.name)))
          schema.Schema.attributes
      in
      (match bad_domain with
      | Some { Attribute.name = n; _ } ->
          Error (Fmt.str "tuple does not conform to %s: wrong domain for %s"
                   schema.Schema.name n)
      | None -> (
          match
            List.find_opt
              (fun k -> Value.is_null (get t k))
              (Schema.key_attributes schema)
          with
          | Some k ->
              Error (Fmt.str "tuple does not conform to %s: null key attribute %s"
                       schema.Schema.name k)
          | None -> Ok ()))

let matches ~on:(xs1, xs2) t1 t2 =
  List.length xs1 = List.length xs2
  && List.for_all2
       (fun x1 x2 ->
         let v1 = get t1 x1 and v2 = get t2 x2 in
         (not (Value.is_null v1)) && Value.equal v1 v2)
       xs1 xs2

let has_nulls_on attrs t = List.exists (fun n -> Value.is_null (get t n)) attrs

let pp ppf t =
  let pp_binding ppf (n, v) = Fmt.pf ppf "%s=%a" n Value.pp v in
  Fmt.pf ppf "@[<h>{%a}@]" Fmt.(list ~sep:(any "; ") pp_binding) (bindings t)
