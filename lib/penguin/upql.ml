open Relational
open Viewobject
open Sql_lexer

let ( let* ) = Result.bind

type assignment = {
  label : string;
  sel : Predicate.t option;
  attr : string;
  value : Value.t;
}

type statement =
  | Delete of Vo_query.condition
  | Set of assignment list * Vo_query.condition
  | Detach of string * Predicate.t * Vo_query.condition
  | Attach of {
      label : string;
      bindings : (string * Value.t) list;
      parent_sel : Predicate.t option;
      cond : Vo_query.condition;
    }

let pp_statement ppf = function
  | Delete c -> Fmt.pf ppf "delete where %a" Vo_query.pp_condition c
  | Set (assigns, c) ->
      let pp_a ppf a =
        Fmt.pf ppf "%s%a.%s = %a" a.label
          Fmt.(option (brackets Predicate.pp))
          a.sel a.attr Value.pp a.value
      in
      Fmt.pf ppf "set %a where %a"
        Fmt.(list ~sep:(any ", ") pp_a)
        assigns Vo_query.pp_condition c
  | Detach (label, sel, c) ->
      Fmt.pf ppf "detach %s[%a] where %a" label Predicate.pp sel
        Vo_query.pp_condition c
  | Attach { label; bindings; parent_sel; cond } ->
      let pp_b ppf (a, v) = Fmt.pf ppf "%s = %a" a Value.pp v in
      Fmt.pf ppf "attach %s (%a)%a where %a" label
        Fmt.(list ~sep:(any ", ") pp_b)
        bindings
        Fmt.(option (any " in " ++ brackets Predicate.pp))
        parent_sel Vo_query.pp_condition cond

(* --- parsing --------------------------------------------------------- *)

let peek = function [] -> Eof | t :: _ -> t
let advance = function [] -> [] | _ :: rest -> rest

let err expected got =
  Error (Fmt.str "update parse error: expected %s, got %a" expected pp_token got)

let expect tok toks =
  if equal_token (peek toks) tok then Ok ((), advance toks)
  else err (Fmt.str "%a" pp_token tok) (peek toks)

let where_condition vo toks =
  let* (), toks = expect (Kw "where") toks in
  Oql.condition_tokens vo toks

(* ref := IDENT | IDENT '[' pred ']' IDENT *)
let assignment vo toks =
  match peek toks with
  | Ident name -> (
      let toks = advance toks in
      match peek toks with
      | Lbracket ->
          let* node =
            match Definition.find vo name with
            | Some n -> Ok n
            | None -> Error (Fmt.str "no node %s in view object %s" name vo.Definition.name)
          in
          let* sel, toks = Oql.node_pred_tokens node (advance toks) in
          let* (), toks = expect Rbracket toks in
          let* attr, toks =
            match peek toks with
            | Ident a -> Ok (a, advance toks)
            | t -> err "attribute name" t
          in
          if not (List.mem attr node.Definition.attrs) then
            Error (Fmt.str "node %s does not project attribute %s" name attr)
          else
            let* (), toks = expect (Op "=") toks in
            let* value, toks = Oql.literal_tokens toks in
            Ok ({ label = node.Definition.label; sel = Some sel; attr; value }, toks)
      | _ ->
          let* label, attr = Oql.resolve_attr vo (Oql.split_ref name) in
          let* (), toks = expect (Op "=") toks in
          let* value, toks = Oql.literal_tokens toks in
          Ok ({ label; sel = None; attr; value }, toks))
  | t -> err "assignment" t

let rec assignments vo toks =
  let* a, toks = assignment vo toks in
  if equal_token (peek toks) Comma then
    let* rest, toks = assignments vo (advance toks) in
    Ok (a :: rest, toks)
  else Ok ([ a ], toks)

(* binding := IDENT '=' literal *)
let rec bindings_p node toks =
  match peek toks with
  | Ident a ->
      if not (List.mem a node.Definition.attrs) then
        Error
          (Fmt.str "node %s does not project attribute %s"
             node.Definition.label a)
      else
        let* (), toks = expect (Op "=") (advance toks) in
        let* v, toks = Oql.literal_tokens toks in
        if equal_token (peek toks) Comma then
          let* rest, toks = bindings_p node (advance toks) in
          Ok ((a, v) :: rest, toks)
        else Ok ([ (a, v) ], toks)
  | t -> err "attribute binding" t

let attach_p vo toks =
  match peek toks with
  | Ident name ->
      let* node =
        match Definition.find vo name with
        | Some n -> Ok n
        | None ->
            Error (Fmt.str "no node %s in view object %s" name vo.Definition.name)
      in
      let* parent =
        match Definition.parent_of vo node.Definition.label with
        | Some p -> Ok p
        | None ->
            Error
              (Fmt.str
                 "cannot attach to node %s: it is the pivot (use a complete \
                  insertion)"
                 name)
      in
      let toks = advance toks in
      let* (), toks = expect Lparen toks in
      let* bindings, toks = bindings_p node toks in
      let* (), toks = expect Rparen toks in
      let* parent_sel, toks =
        match peek toks with
        | Ident "in" -> (
            match peek (advance toks) with
            | Ident pname ->
                if pname <> parent.Definition.label then
                  Error
                    (Fmt.str
                       "the parent of %s is %s, not %s"
                       name parent.Definition.label pname)
                else
                  let toks = advance (advance toks) in
                  let* (), toks = expect Lbracket toks in
                  let* sel, toks = Oql.node_pred_tokens parent toks in
                  let* (), toks = expect Rbracket toks in
                  Ok (Some sel, toks)
            | t -> err "parent node label" t)
        | _ -> Ok (None, toks)
      in
      let* cond, toks = where_condition vo toks in
      Ok
        ( Attach { label = node.Definition.label; bindings; parent_sel; cond },
          toks )
  | t -> err "node label" t

let parse vo input =
  let* toks = Sql_lexer.tokenize input in
  let finish v toks =
    match peek toks with
    | Eof -> Ok v
    | t -> Result.map (fun ((), _) -> v) (err "end of statement" t)
  in
  match peek toks with
  | Kw "delete" ->
      let* c, toks = where_condition vo (advance toks) in
      finish (Delete c) toks
  | Kw "set" ->
      let* assigns, toks = assignments vo (advance toks) in
      let* c, toks = where_condition vo toks in
      finish (Set (assigns, c)) toks
  | Ident "attach" ->
      let* stmt, toks = attach_p vo (advance toks) in
      finish stmt toks
  | Ident "detach" -> (
      match peek (advance toks) with
      | Ident name ->
          let* node =
            match Definition.find vo name with
            | Some n -> Ok n
            | None ->
                Error (Fmt.str "no node %s in view object %s" name vo.Definition.name)
          in
          let toks = advance (advance toks) in
          let* (), toks = expect Lbracket toks in
          let* sel, toks = Oql.node_pred_tokens node toks in
          let* (), toks = expect Rbracket toks in
          let* c, toks = where_condition vo toks in
          finish (Detach (node.Definition.label, sel, c)) toks
      | t -> err "node label" t)
  | t -> err "delete, set, attach or detach" t

(* --- application ------------------------------------------------------ *)

let edit_instance vo stmt (inst : Instance.t) =
  match stmt with
  | Delete _ -> Ok None  (* handled by the caller *)
  | Attach { label; bindings; parent_sel; _ } ->
      let node = Definition.find_exn vo label in
      let parent =
        match Definition.parent_of vo label with
        | Some p -> p
        | None -> invalid_arg "attach: no parent"
      in
      let child =
        Instance.leaf ~label ~relation:node.Definition.relation
          (Tuple.make bindings)
      in
      let sel =
        match parent_sel with
        | Some p -> fun t -> Predicate.eval p t
        | None -> fun _ -> true
      in
      let* i =
        Vo_core.Request.attach_where inst
          ~parent_label:parent.Definition.label ~sel ~child
      in
      Ok (Some i)
  | Detach (label, sel, _) ->
      let* i =
        Vo_core.Request.detach_where inst ~label
          ~sel:(fun t -> Predicate.eval sel t)
      in
      Ok (Some i)
  | Set (assigns, _) ->
      let* i =
        List.fold_left
          (fun acc a ->
            let* i = acc in
            let apply_tuple t = Tuple.set t a.attr a.value in
            if a.label = vo.Definition.root.Definition.label then
              Ok (Instance.with_tuple i (apply_tuple i.Instance.tuple))
            else
              let sel =
                match a.sel with
                | Some p -> fun t -> Predicate.eval p t
                | None -> fun _ -> true
              in
              Vo_core.Request.modify_where i ~label:a.label ~sel ~f:apply_tuple)
          (Ok inst) assigns
      in
      Ok (Some i)

let requests ws ~object_name input =
  let* vo = Workspace.find_object ws object_name in
  let* stmt = parse vo input in
  let condition =
    match stmt with
    | Delete c | Set (_, c) | Detach (_, _, c) | Attach { cond = c; _ } -> c
  in
  let* candidates = Workspace.query ws object_name condition in
  List.fold_left
    (fun acc inst ->
      let* acc = acc in
      match stmt with
      | Delete _ -> Ok (Vo_core.Request.delete inst :: acc)
      | Set _ | Detach _ | Attach _ -> (
          match edit_instance vo stmt inst with
          | Error e -> Error e
          | Ok None -> Error "internal: no edited instance"
          | Ok (Some new_instance) ->
              if Instance.equal new_instance inst then Ok acc
              else
                Ok
                  (Vo_core.Request.replace ~old_instance:inst ~new_instance
                  :: acc)))
    (Ok []) candidates
  |> Result.map List.rev
