module SMap = Map.Make (String)

module KMap = Map.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

type change =
  | Added of Tuple.t
  | Removed of Tuple.t
  | Updated of {
      before : Tuple.t;
      after : Tuple.t;
    }

type t = change KMap.t SMap.t

let empty = SMap.empty
let is_empty = SMap.is_empty

let cardinal d = SMap.fold (fun _ m acc -> acc + KMap.cardinal m) d 0

let update_rel d rel f =
  let m = Option.value (SMap.find_opt rel d) ~default:KMap.empty in
  let m = f m in
  if KMap.is_empty m then SMap.remove rel d else SMap.add rel m d

let add d ~rel ~key t =
  update_rel d rel (fun m ->
      match KMap.find_opt key m with
      | None -> KMap.add key (Added t) m
      | Some (Removed t0) | Some (Updated { before = t0; _ }) ->
          KMap.add key (Updated { before = t0; after = t }) m
      | Some (Added _) -> KMap.add key (Added t) m)

let remove d ~rel ~key t =
  update_rel d rel (fun m ->
      match KMap.find_opt key m with
      | None -> KMap.add key (Removed t) m
      | Some (Added _) -> KMap.remove key m
      | Some (Updated { before; _ }) -> KMap.add key (Removed before) m
      | Some (Removed _) ->
          (* Removing an already-removed key cannot happen on a valid op
             sequence; keep the first old image. *)
          m)

let record d ~rel ~key ~old_image ~new_image =
  let d =
    match old_image with Some t0 -> remove d ~rel ~key t0 | None -> d
  in
  match new_image with Some t -> add d ~rel ~key t | None -> d

let compose d1 d2 =
  SMap.fold
    (fun rel m acc ->
      KMap.fold
        (fun key c acc ->
          match c with
          | Added t -> record acc ~rel ~key ~old_image:None ~new_image:(Some t)
          | Removed t ->
              record acc ~rel ~key ~old_image:(Some t) ~new_image:None
          | Updated { before; after } ->
              record acc ~rel ~key ~old_image:(Some before)
                ~new_image:(Some after))
        m acc)
    d2 d1

let relations d = List.map fst (SMap.bindings d)

let change_equal a b =
  match a, b with
  | Added x, Added y | Removed x, Removed y -> Tuple.equal x y
  | Updated a, Updated b ->
      Tuple.equal a.before b.before && Tuple.equal a.after b.after
  | _ -> false

let equal = SMap.equal (KMap.equal change_equal)

(* --- footprints and conflicts --------------------------------------- *)

module KSet = Set.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

type footprint = {
  reads : KSet.t SMap.t;
  writes : KSet.t SMap.t;
}

let empty_footprint = { reads = SMap.empty; writes = SMap.empty }

let fp_add m rel key =
  SMap.update rel
    (fun s -> Some (KSet.add key (Option.value s ~default:KSet.empty)))
    m

let footprint_add_read fp ~rel ~key = { fp with reads = fp_add fp.reads rel key }
let footprint_add_write fp ~rel ~key = { fp with writes = fp_add fp.writes rel key }

let fp_union = SMap.union (fun _ a b -> Some (KSet.union a b))

let footprint_union a b =
  { reads = fp_union a.reads b.reads; writes = fp_union a.writes b.writes }

let fp_bindings m =
  List.map (fun (rel, s) -> rel, KSet.elements s) (SMap.bindings m)

let footprint_reads fp = fp_bindings fp.reads
let footprint_writes fp = fp_bindings fp.writes

let footprint d =
  SMap.fold
    (fun rel m fp ->
      KMap.fold
        (fun key c fp ->
          (* Every net change writes its key; [Removed]/[Updated] also
             consulted the old image, i.e. read it. *)
          let fp = footprint_add_write fp ~rel ~key in
          match c with
          | Added _ -> fp
          | Removed _ | Updated _ -> footprint_add_read fp ~rel ~key)
        m fp)
    d empty_footprint

type conflict_kind =
  | Write_write
  | Write_read

type conflict = {
  rel : string;
  key : Value.t list;
  kind : conflict_kind;
}

let conflict_kind_name = function
  | Write_write -> "write-write"
  | Write_read -> "write-read"

let pp_conflict ppf c =
  Fmt.pf ppf "%s conflict on %s(%a)" (conflict_kind_name c.kind) c.rel
    Fmt.(list ~sep:comma Value.pp)
    c.key

let conflict_to_string c = Fmt.str "%a" pp_conflict c

(* Overlaps of [a]'s writes against [b]'s writes and reads. A key both
   written by [a] and written by [b] is a single write-write conflict
   (the write-read overlap it implies is subsumed). *)
let overlaps a b =
  SMap.fold
    (fun rel wa acc ->
      let wb = Option.value (SMap.find_opt rel b.writes) ~default:KSet.empty in
      let rb = Option.value (SMap.find_opt rel b.reads) ~default:KSet.empty in
      let ww = KSet.inter wa wb in
      let wr = KSet.diff (KSet.inter wa rb) ww in
      KSet.fold (fun key acc -> { rel; key; kind = Write_write } :: acc) ww acc
      |> KSet.fold (fun key acc -> { rel; key; kind = Write_read } :: acc) wr)
    a.writes []

let conflict_compare a b =
  match String.compare a.rel b.rel with
  | 0 -> (
      match List.compare Value.compare a.key b.key with
      | 0 -> compare a.kind b.kind
      | n -> n)
  | n -> n

let conflicts_footprint a b =
  List.sort_uniq conflict_compare (overlaps a b @ overlaps b a)

let conflicts a b = conflicts_footprint (footprint a) (footprint b)

let merge a b =
  let conflict = ref None in
  let merged =
    SMap.union
      (fun rel ma mb ->
        Some
          (KMap.union
             (fun key _ _ ->
               (if !conflict = None then
                  conflict := Some { rel; key; kind = Write_write });
               None)
             ma mb))
      a b
  in
  match !conflict with Some c -> Error c | None -> Ok merged

let bindings d =
  List.map (fun (rel, m) -> rel, KMap.bindings m) (SMap.bindings d)

let of_bindings l =
  List.fold_left
    (fun d (rel, changes) ->
      update_rel d rel (fun m ->
          List.fold_left (fun m (key, c) -> KMap.add key c m) m changes))
    empty l

let changes d rel =
  match SMap.find_opt rel d with
  | None -> []
  | Some m -> List.map snd (KMap.bindings m)

let fold f d init =
  SMap.fold (fun rel m acc -> KMap.fold (fun _ c acc -> f rel c acc) m acc) d init

let pp_change ppf = function
  | Added t -> Fmt.pf ppf "+ %a" Tuple.pp t
  | Removed t -> Fmt.pf ppf "- %a" Tuple.pp t
  | Updated { before; after } ->
      Fmt.pf ppf "~ %a -> %a" Tuple.pp before Tuple.pp after

let pp ppf d =
  Fmt.pf ppf "@[<v>%a@]"
    Fmt.(
      list ~sep:cut (fun ppf (rel, m) ->
          Fmt.pf ppf "@[<v2>%s:@,%a@]" rel
            (list ~sep:cut pp_change)
            (List.map snd (KMap.bindings m))))
    (SMap.bindings d)
