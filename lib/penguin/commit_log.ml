open Relational

type change =
  | Delta of Delta.t
  | Barrier of string

type entry = {
  version : int;
  change : change;
  kind : string;
}

type t = {
  version : int;
  truncated : int;
  entries : entry list;  (* newest first *)
}

let empty = { version = 0; truncated = 0; entries = [] }

let of_version version = { version; truncated = version; entries = [] }

let version t = t.version

let truncated t = t.truncated

let length t = List.length t.entries

let append t ~delta ~kind =
  let version = t.version + 1 in
  { t with version; entries = { version; change = Delta delta; kind } :: t.entries }

let barrier t reason =
  let version = t.version + 1 in
  {
    t with
    version;
    entries = { version; change = Barrier reason; kind = reason } :: t.entries;
  }

let append_entry t (e : entry) =
  if e.version <> t.version + 1 then
    Error
      (Fmt.str "commit log: entry v%d cannot extend a log at v%d" e.version
         t.version)
  else Ok { t with version = e.version; entries = e :: t.entries }

let entries t = List.rev t.entries

(* The log is newest first, so the entries after [since] are a prefix:
   stop at the first one at or below it. *)
let entries_since t since =
  let rec newer acc = function
    | (e : entry) :: rest when e.version > since -> newer (e :: acc) rest
    | _ -> acc
  in
  let newer = newer [] t.entries in
  if since < t.truncated then
    {
      version = t.truncated;
      change = Barrier "history truncated";
      kind = "history truncated";
    }
    :: newer
  else newer

let trim t ~keep_after =
  let keep_after = min keep_after t.version in
  if keep_after <= t.truncated then t
  else
    let rec kept = function
      | (e : entry) :: rest when e.version > keep_after -> e :: kept rest
      | _ -> []
    in
    { t with truncated = keep_after; entries = kept t.entries }

let footprint_since t since =
  List.fold_left
    (fun acc e ->
      match acc, e.change with
      | None, _ | _, Barrier _ -> None
      | Some fp, Delta d -> Some (Delta.footprint_union fp (Delta.footprint d)))
    (Some Delta.empty_footprint) (entries_since t since)

let pp_entry ppf e =
  match e.change with
  | Delta d ->
      Fmt.pf ppf "@[<v2>v%d %s (%d change(s)):@,%a@]" e.version e.kind
        (Delta.cardinal d) Delta.pp d
  | Barrier reason -> Fmt.pf ppf "v%d barrier: %s" e.version reason

let pp ppf t =
  Fmt.pf ppf "@[<v>commit log at v%d:@,%a@]" t.version
    Fmt.(list ~sep:cut pp_entry)
    (entries t)
