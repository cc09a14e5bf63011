(* The tree reader: how snapshots, journal records and instances were
   read before the streaming reader replaced it — parse the whole input
   into a {!Relational.Sexp.t} with a byte-at-a-time parser, then decode
   the tree. Kept as the reference the streaming reader is checked
   against: on any input both give equal results, or the same error. *)

open Relational
open Viewobject

let ( let* ) = Result.bind
let map_m f items =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> ( match f x with Ok y -> go (y :: acc) rest | Error _ as e -> e)
  in
  go [] items

(* --- the parser -------------------------------------------------------- *)

let parse_all input =
  let n = String.length input in
  let rec skip_ws i =
    if i >= n then i
    else
      match input.[i] with
      | ' ' | '\t' | '\n' | '\r' -> skip_ws (i + 1)
      | ';' ->
          let rec eol i = if i >= n || input.[i] = '\n' then i else eol (i + 1) in
          skip_ws (eol i)
      | _ -> i
  in
  let rec parse_one i =
    let i = skip_ws i in
    if i >= n then Error "sexp: unexpected end of input"
    else
      match input.[i] with
      | '(' -> parse_items (i + 1) []
      | ')' -> Error (Fmt.str "sexp: unexpected ')' at offset %d" i)
      | '"' -> parse_quoted (i + 1) (Buffer.create 16)
      | _ -> parse_bare i (Buffer.create 16)
  and parse_items i acc =
    let i = skip_ws i in
    if i >= n then Error "sexp: unterminated list"
    else if input.[i] = ')' then Ok (Sexp.List (List.rev acc), i + 1)
    else
      match parse_one i with
      | Error e -> Error e
      | Ok (e, i) -> parse_items i (e :: acc)
  and parse_quoted i buf =
    if i >= n then Error "sexp: unterminated string"
    else
      match input.[i] with
      | '"' -> Ok (Sexp.Atom (Buffer.contents buf), i + 1)
      | '\\' ->
          if i + 1 >= n then Error "sexp: dangling escape"
          else begin
            (match input.[i + 1] with
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | c -> Buffer.add_char buf c);
            parse_quoted (i + 2) buf
          end
      | c ->
          Buffer.add_char buf c;
          parse_quoted (i + 1) buf
  and parse_bare i buf =
    if
      i >= n
      ||
      match input.[i] with
      | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' -> true
      | _ -> false
    then Ok (Sexp.Atom (Buffer.contents buf), i)
    else begin
      Buffer.add_char buf input.[i];
      parse_bare (i + 1) buf
    end
  in
  let rec go i acc =
    let i = skip_ws i in
    if i >= n then Ok (List.rev acc)
    else
      match parse_one i with
      | Error e -> Error e
      | Ok (e, i) -> go i (e :: acc)
  in
  go 0 []


let parse input =
  match parse_all input with
  | Ok [ e ] -> Ok e
  | Ok [] -> Error "sexp: empty input"
  | Ok _ -> Error "sexp: expected a single expression"
  | Error e -> Error e

(* --- values, rows, instances ------------------------------------------- *)

let value_of_sexp = function
  | Sexp.Atom "null" -> Ok Value.Null
  | Sexp.List [ Sexp.Atom "int"; Sexp.Atom i ] -> (
      match int_of_string_opt i with
      | Some i -> Ok (Value.Int i)
      | None -> Error (Fmt.str "store: bad int %s" i))
  | Sexp.List [ Sexp.Atom "float"; Sexp.Atom f ] -> (
      match float_of_string_opt f with
      | Some f -> Ok (Value.Float f)
      | None -> Error (Fmt.str "store: bad float %s" f))
  | Sexp.List [ Sexp.Atom "str"; Sexp.Atom s ] -> Ok (Value.Str s)
  | Sexp.List [ Sexp.Atom "bool"; Sexp.Atom b ] -> (
      match bool_of_string_opt b with
      | Some b -> Ok (Value.Bool b)
      | None -> Error (Fmt.str "store: bad bool %s" b))
  | e -> Error (Fmt.str "store: bad value %s" (Sexp.to_string e))

let tuple_of_sexp e =
  let* items = Sexp.as_list e in
  match items with
  | Sexp.Atom "row" :: bindings ->
      let* bindings =
        map_m
          (fun b ->
            let* items = Sexp.as_list b in
            match items with
            | [ Sexp.Atom a; v ] ->
                let* v = value_of_sexp v in
                Ok (a, v)
            | _ -> Error "store: bad binding")
          bindings
      in
      Ok (Tuple.make bindings)
  | _ -> Error "store: bad row"

let rec instance_of_sexp e =
  let* items = Sexp.as_list e in
  match items with
  | [ Sexp.Atom "instance"; Sexp.Atom label; Sexp.Atom relation; row;
      Sexp.List (Sexp.Atom "children" :: child_groups) ] ->
      let* tuple = tuple_of_sexp row in
      let* children =
        map_m
          (fun group ->
            let* items = Sexp.as_list group in
            match items with
            | Sexp.Atom child_label :: subs ->
                let* subs = map_m instance_of_sexp subs in
                Ok (child_label, subs)
            | _ -> Error "store: bad child group")
          child_groups
      in
      Ok (Instance.make ~label ~relation ~tuple ~children)
  | _ -> Error "store: bad instance"


(* --- snapshots ----------------------------------------------------------- *)

(* The header is decoded by the store itself, from the document without
   its data section and version fields; the data section is decoded
   here, after the header and before the version fields, as it was, and
   each relation is filled by inserting its rows one at a time. *)
let load_snapshot input =
  let* doc = parse input in
  let* items = Sexp.as_list doc in
  match items with
  | Sexp.Atom "penguin-workspace" :: rest ->
      let header =
        List.filter
          (function
            | Sexp.List (Sexp.Atom ("data" | "version" | "epoch") :: _) -> false
            | _ -> true)
          rest
      in
      let* ws =
        Penguin.Store.load
          (Sexp.to_string (Sexp.List (Sexp.Atom "penguin-workspace" :: header)))
      in
      let* db =
        match Sexp.keyed_opt "data" rest with
        | None -> Ok ws.Penguin.Workspace.db
        | Some relation_items ->
            List.fold_left
              (fun acc e ->
                let* db = acc in
                let* items = Sexp.as_list e in
                match items with
                | Sexp.Atom "relation" :: Sexp.Atom name :: rows ->
                    let* ts = map_m tuple_of_sexp rows in
                    Result.map_error Database.error_to_string
                      (Database.with_relation db name (fun r ->
                           List.fold_left
                             (fun acc t -> Result.bind acc (fun r -> Relation.insert r t))
                             (Ok r) ts))
                | _ -> Error "store: bad relation data")
              (Ok ws.Penguin.Workspace.db) relation_items
      in
      let number field =
        match Sexp.keyed_opt field rest with
        | None -> Ok None
        | Some [ Sexp.Atom v ] -> (
            match int_of_string_opt v with
            | Some v when v >= 0 -> Ok (Some v)
            | _ -> Error (Fmt.str "store: bad %s %s" field v))
        | Some _ -> Error (Fmt.str "store: bad %s" field)
      in
      let* version = number "version" in
      let* epoch = number "epoch" in
      let log =
        Option.fold ~none:Penguin.Commit_log.empty ~some:Penguin.Commit_log.of_version
          version
      in
      Ok
        ( { ws with Penguin.Workspace.db; log },
          Option.value epoch ~default:0 )
  | _ -> Error "store: not a penguin-workspace document"

(* --- journal records ----------------------------------------------------- *)

module Commit_log = Penguin.Commit_log

let int_of_sexp e =
  let* a = Sexp.as_atom e in
  match int_of_string_opt a with
  | Some i -> Ok i
  | None -> Error (Fmt.str "journal: bad integer %s" a)

let key_of_sexp e =
  let* items = Sexp.as_list e in
  match items with
  | Sexp.Atom "key" :: vs -> map_m value_of_sexp vs
  | _ -> Error "journal: bad key"

let change_of_sexp e =
  let* items = Sexp.as_list e in
  match items with
  | [ Sexp.Atom "add"; key; row ] ->
      let* key = key_of_sexp key in
      let* t = tuple_of_sexp row in
      Ok (key, Delta.Added t)
  | [ Sexp.Atom "del"; key; row ] ->
      let* key = key_of_sexp key in
      let* t = tuple_of_sexp row in
      Ok (key, Delta.Removed t)
  | [ Sexp.Atom "upd"; key; before; after ] ->
      let* key = key_of_sexp key in
      let* before = tuple_of_sexp before in
      let* after = tuple_of_sexp after in
      Ok (key, Delta.Updated { before; after })
  | _ -> Error "journal: bad change"

let delta_of_sexps items =
  let* bindings =
    map_m
      (fun e ->
        let* items = Sexp.as_list e in
        match items with
        | Sexp.Atom "rel" :: Sexp.Atom rel :: changes ->
            let* changes = map_m change_of_sexp changes in
            Ok (rel, changes)
        | _ -> Error "journal: bad relation changes")
      items
  in
  Ok (Delta.of_bindings bindings)

let entry_of_sexp e =
  let* items = Sexp.as_list e in
  match items with
  | [ Sexp.Atom "entry"; version; Sexp.List [ Sexp.Atom "kind"; Sexp.Atom kind ];
      change ] ->
      let* version = int_of_sexp version in
      let* change =
        let* items = Sexp.as_list change in
        match items with
        | Sexp.Atom "delta" :: rels ->
            let* d = delta_of_sexps rels in
            Ok (Commit_log.Delta d)
        | [ Sexp.Atom "barrier"; Sexp.Atom reason ] ->
            Ok (Commit_log.Barrier reason)
        | _ -> Error "journal: bad entry change"
      in
      Ok { Commit_log.version; kind; change }
  | _ -> Error "journal: bad entry"


let record_of_payload payload =
  let* doc = parse payload in
  let* items = Sexp.as_list doc in
  match items with
  | Sexp.Atom "commit" :: entries -> map_m entry_of_sexp entries
  | _ -> Error "journal: bad commit record"
