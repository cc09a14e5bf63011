(* A secondary index: normalized attribute list plus a map from attribute
   values to the set of primary keys of the tuples carrying them (a
   posting set: a map to [()]). *)
type index = {
  attrs : string list;  (** sorted *)
  entries : unit Keymap.t Keymap.t;  (** values (in [attrs] order) -> keys *)
}

type t = {
  schema : Schema.t;
  tuples : Tuple.t Keymap.t;
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

let empty schema = { schema; tuples = Keymap.empty; idx = [] }
let schema r = r.schema
let name r = r.schema.Schema.name
let cardinality r = Keymap.cardinal r.tuples
let is_empty r = Keymap.is_empty r.tuples

(* Bind every declared attribute, padding missing nonkey attributes with
   Null so that stored tuples always have the full schema width. *)
let pad schema t = Tuple.project_null (Schema.attribute_names schema) t

(* [pad] then [Tuple.conforms], without copying a tuple that already
   binds exactly the schema's attributes to values of their domains,
   keys non-null — every row a snapshot or a journal holds. *)
let conform schema t =
  let rec fits = function
    | [] -> true
    | (a : Attribute.t) :: rest -> (
        match Tuple.get_opt t a.name with
        | Some v ->
            Value.conforms a.domain v
            && (not (Value.is_null v && List.mem a.name schema.Schema.key))
            && fits rest
        | None -> false)
  in
  if Tuple.cardinal t = List.length schema.Schema.attributes && fits schema.Schema.attributes
  then Ok t
  else
    let t = pad schema t in
    Result.map (fun () -> t) (Tuple.conforms schema t)

(* --- index maintenance ------------------------------------------------ *)

(* A tuple's values on [attrs], in order. *)
let rec values_on t = function [] -> [] | a :: rest -> Tuple.get t a :: values_on t rest

let index_values ix t = values_on t ix.attrs
let key_of r t = values_on t r.schema.Schema.key

let index_add ix key t =
  let vs = index_values ix t in
  let existing = Option.value (Keymap.find_opt vs ix.entries) ~default:Keymap.empty in
  { ix with entries = Keymap.add vs (Keymap.add key () existing) ix.entries }

let index_remove ix key t =
  let vs = index_values ix t in
  match Keymap.find_opt vs ix.entries with
  | None -> ix
  | Some keys ->
      let keys = Keymap.remove key keys in
      if Keymap.is_empty keys then { ix with entries = Keymap.remove vs ix.entries }
      else { ix with entries = Keymap.add vs keys ix.entries }

let with_indexes f r = { r with idx = List.map f r.idx }

let after_insert key t r = with_indexes (fun ix -> index_add ix key t) r

let after_delete key t r = with_indexes (fun ix -> index_remove ix key t) r

(* --- core operations -------------------------------------------------- *)

let insert r t =
  match conform r.schema t with
  | Error msg -> Error (Nonconforming msg)
  | Ok t ->
      let k = key_of r t in
      if Keymap.mem k r.tuples then Error (Duplicate_key k)
      else Ok (after_insert k t { r with tuples = Keymap.add k t r.tuples })

let delete_key r k =
  match Keymap.find_opt k r.tuples with
  | Some t -> Ok (after_delete k t { r with tuples = Keymap.remove k r.tuples })
  | None -> Error (No_such_key k)

let delete_tuple r t = delete_key r (key_of r t)

let replace r ~old_key t =
  match conform r.schema t with
  | Error msg -> Error (Nonconforming msg)
  | Ok t -> (
      match Keymap.find_opt old_key r.tuples with
      | None -> Error (No_such_key old_key)
      | Some old_t ->
          let new_key = key_of r t in
          let same_key = Keymap.compare_key old_key new_key = 0 in
          if (not same_key) && Keymap.mem new_key r.tuples then
            Error (Duplicate_key new_key)
          else
            let tuples =
              if same_key then Keymap.add new_key t r.tuples
              else Keymap.add new_key t (Keymap.remove old_key r.tuples)
            in
            (* An index whose values the replace keeps, under the same
               key, stays as it was: a grade change touches no posting
               set. *)
            let reindex ix =
              if
                same_key
                && List.for_all
                     (fun a -> Value.equal (Tuple.get old_t a) (Tuple.get t a))
                     ix.attrs
              then ix
              else index_add (index_remove ix old_key old_t) new_key t
            in
            Ok { r with tuples; idx = List.map reindex r.idx })

let lookup r k = Keymap.find_opt k r.tuples
let mem_key r k = Keymap.mem k r.tuples

let mem_tuple r t =
  let t = pad r.schema t in
  match lookup r (key_of r t) with
  | Some t' -> Tuple.equal t t'
  | None -> false

let find_matching r t = lookup r (key_of r t)

let fold f r init = Keymap.fold (fun _ t acc -> f t acc) r.tuples init
let iter f r = Keymap.iter (fun _ t -> f t) r.tuples
let to_list r = List.rev (fold (fun t acc -> t :: acc) r [])

(* [Some candidate] when [p] fixes the whole primary key: the one tuple
   that can satisfy it is found by lookup, not by a scan. *)
let keyed_candidate p r =
  Predicate.fixed_key (Schema.key_attributes r.schema) p
  |> Option.map (fun k -> Keymap.find_opt k r.tuples)

let select p r =
  match keyed_candidate p r with
  | Some (Some t) when Predicate.eval p t -> [ t ]
  | Some _ -> []
  | None -> List.filter (fun t -> Predicate.eval p t) (to_list r)

let exists p r =
  match keyed_candidate p r with
  | Some candidate -> Option.fold ~none:false ~some:(Predicate.eval p) candidate
  | None -> Keymap.exists (fun _ t -> Predicate.eval p t) r.tuples

(* --- secondary indexes ------------------------------------------------ *)

let normalize_attrs attrs = List.sort_uniq String.compare attrs

(* Groups index values in a hash table. The hash agrees with
   [Keymap.compare_key]: [Value.compare] equates only values of one
   constructor, and [Hashtbl.hash] maps -0.0 to 0.0 and every NaN to
   one, as [Float.compare] equates them. *)
module VTbl = Hashtbl.Make (struct
  type t = Keymap.key

  let equal a b = Keymap.compare_key a b = 0
  let hash = Hashtbl.hash
end)

(* Two tuples compared on [attrs], as their value lists compare. *)
let rec compare_on attrs t t' =
  match attrs with
  | [] -> 0
  | a :: rest ->
      let c = Value.compare (Tuple.get t a) (Tuple.get t' a) in
      if c <> 0 then c else compare_on rest t t'

(* The positions of [tuples] ordered by their values on [attrs], stably:
   as they are when the values already ascend (an index on a key
   prefix), and otherwise grouped by hashing, each group's positions in
   order and the distinct values sorted. *)
let order_by_values attrs tuples =
  let n = Array.length tuples in
  let rec ascending j =
    j >= n || (compare_on attrs tuples.(j - 1) tuples.(j) <= 0 && ascending (j + 1))
  in
  if ascending 1 then Array.init n Fun.id
  else begin
    let groups = VTbl.create 64 in
    for i = n - 1 downto 0 do
      let vs = values_on tuples.(i) attrs in
      match VTbl.find_opt groups vs with
      | Some positions -> positions := i :: !positions
      | None -> VTbl.add groups vs (ref [ i ])
    done;
    let distinct = Array.of_seq (VTbl.to_seq groups) in
    Array.sort (fun (a, _) (b, _) -> Keymap.compare_key a b) distinct;
    Array.of_list (List.concat_map (fun (_, positions) -> !positions) (Array.to_list distinct))
  end

(* The tuples, in key order and then ordered by their values (keys
   ascending within equal values), are cut into runs of equal values;
   each run's keys are one posting set. The sets, and the map over them,
   are built from sorted runs without a search, and a value list is
   built once per run. *)
let build_index r attrs =
  let n = Keymap.cardinal r.tuples in
  let keys = Array.make n [] and tuples = Array.make n Tuple.empty in
  let i = ref 0 in
  Keymap.iter
    (fun key t ->
      keys.(!i) <- key;
      tuples.(!i) <- t;
      incr i)
    r.tuples;
  let order = order_by_values attrs tuples in
  let tuple j = tuples.(order.(j)) in
  let starts = ref [] in
  for j = n - 1 downto 0 do
    if j = 0 || compare_on attrs (tuple (j - 1)) (tuple j) <> 0 then starts := j :: !starts
  done;
  let starts = Array.of_list !starts in
  let runs = Array.length starts in
  let posting g =
    let lo = starts.(g) in
    let hi = if g + 1 < runs then starts.(g + 1) else n in
    Keymap.of_sorted (hi - lo) ~key:(fun j -> keys.(order.(lo + j))) ~data:(fun _ -> ())
  in
  let entries =
    Keymap.of_sorted runs ~key:(fun g -> values_on (tuple starts.(g)) attrs) ~data:posting
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
        match Keymap.find_opt vs ix.entries with
        | None -> []
        | Some keys ->
            List.filter_map (fun k -> Keymap.find_opt k r.tuples) (Keymap.keys keys))
    | None -> select (eq_predicate bindings) r

let exists_eq r bindings =
  (not (List.exists (fun (_, v) -> Value.is_null v) bindings))
  &&
  match find_index r bindings with
  | Some (ix, vs) -> (
      match Keymap.find_opt vs ix.entries with
      | None -> false
      | Some keys -> Keymap.exists (fun k () -> Keymap.mem k r.tuples) keys)
  | None -> exists (eq_predicate bindings) r

(* The bulk constructor: one sorted run instead of a row-by-row fold.
   Rows are padded and checked in order up to the first nonconforming
   one; the conforming rows before it are sorted once by key (stably, so
   equal keys keep their order: a writer's rows arrive sorted and skip
   the sort), and a key equal to its left neighbour's, or already in
   [r], marks a duplicate. The error is the one the fold would meet
   first: the earliest row that is a duplicate or does not conform. *)
let insert_all r ts =
  let rows = Array.of_list ts in
  let rec conforming i =
    if i = Array.length rows then i, None
    else
      match conform r.schema rows.(i) with
      | Ok t ->
          rows.(i) <- t;
          conforming (i + 1)
      | Error msg -> i, Some msg
  in
  let n, nonconforming = conforming 0 in
  let keys = Array.init n (fun i -> key_of r rows.(i)) in
  let order = Array.init n Fun.id in
  let by_key i j = Keymap.compare_key keys.(i) keys.(j) in
  let rec ascending j = j >= n || (by_key (j - 1) j <= 0 && ascending (j + 1)) in
  if not (ascending 1) then Array.stable_sort by_key order;
  let first_dup = ref n in
  for j = 0 to n - 1 do
    let i = order.(j) in
    if
      i < !first_dup
      && ((j > 0 && Keymap.compare_key keys.(order.(j - 1)) keys.(i) = 0)
         || Keymap.mem keys.(i) r.tuples)
    then first_dup := i
  done;
  if !first_dup < n then Error (Duplicate_key keys.(!first_dup))
  else
    match nonconforming with
    | Some msg -> Error (Nonconforming msg)
    | None ->
        let tuples =
          if Keymap.is_empty r.tuples then
            Keymap.of_sorted n ~key:(fun j -> keys.(order.(j))) ~data:(fun j ->
                rows.(order.(j)))
          else
            Array.fold_left
              (fun m i -> Keymap.add keys.(i) rows.(i) m)
              r.tuples order
        in
        let bare = { r with tuples; idx = [] } in
        Ok { bare with idx = List.map (fun ix -> build_index bare ix.attrs) r.idx }

let of_list schema ts = insert_all (empty schema) ts

let of_list_exn schema ts =
  match of_list schema ts with
  | Ok r -> r
  | Error e -> invalid_arg (Fmt.str "%s: %a" schema.Schema.name pp_error e)

(* Indexes are derived state and do not participate in equality. *)
let equal a b =
  Schema.equal a.schema b.schema && Keymap.equal Tuple.equal a.tuples b.tuples

let pp ppf r =
  Fmt.pf ppf "@[<v>%a@,%a@]" Schema.pp r.schema
    Fmt.(list ~sep:cut Tuple.pp)
    (to_list r)
