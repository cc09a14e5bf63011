(* Each cell is returned with a flag recording whether any part of it was
   quoted — a quoted [null] is the string "null", not the null value. *)
let parse_line_q line =
  let buf = Buffer.create 16 in
  let cells = ref [] in
  let quoted = ref false in
  let n = String.length line in
  let flush () =
    cells := (Buffer.contents buf, !quoted) :: !cells;
    Buffer.clear buf;
    quoted := false
  in
  (* States: outside quotes / inside quotes. A double quote inside a
     quoted cell escapes a literal quote. *)
  let rec outside i =
    if i >= n then flush ()
    else
      match line.[i] with
      | ',' ->
          flush ();
          outside (i + 1)
      | '"' ->
          quoted := true;
          inside (i + 1)
      | c ->
          Buffer.add_char buf c;
          outside (i + 1)
  and inside i =
    if i >= n then flush ()
    else
      match line.[i] with
      | '"' ->
          if i + 1 < n && line.[i + 1] = '"' then (
            Buffer.add_char buf '"';
            inside (i + 2))
          else outside (i + 1)
      | c ->
          Buffer.add_char buf c;
          inside (i + 1)
  in
  outside 0;
  List.rev !cells

let parse_line line = List.map fst (parse_line_q line)

let ( let* ) = Result.bind

let split_lines doc =
  String.split_on_char '\n' doc
  |> List.map (fun l ->
         let l = if String.length l > 0 && l.[String.length l - 1] = '\r'
                 then String.sub l 0 (String.length l - 1) else l in
         l)
  |> List.filter (fun l -> String.trim l <> "")

let load schema doc =
  match split_lines doc with
  | [] -> Error "csv: empty document"
  | header_line :: data_lines ->
      let header = List.map String.trim (parse_line header_line) in
      let* () =
        match
          List.find_opt (fun h -> not (Schema.mem schema h)) header
        with
        | Some h -> Error (Fmt.str "csv: unknown column %s" h)
        | None -> (
            match
              List.find_opt
                (fun a -> not (List.mem a header))
                (Schema.attribute_names schema)
            with
            | Some a -> Error (Fmt.str "csv: missing column %s" a)
            | None -> Ok ())
      in
      let parse_row lineno line =
        let cells = parse_line_q line in
        if List.length cells <> List.length header then
          Error (Fmt.str "csv line %d: expected %d cells, got %d" lineno
                   (List.length header) (List.length cells))
        else
          List.fold_left2
            (fun acc col (cell, was_quoted) ->
              let* bindings = acc in
              let domain = Option.get (Schema.domain_of schema col) in
              let* v =
                (* Quoted cells are literal: never null, and for strings
                   taken verbatim (Value.parse would strip a leading and
                   trailing double quote). *)
                if was_quoted && domain = Value.DStr then Ok (Value.Str cell)
                else if
                  (not was_quoted) && String.lowercase_ascii (String.trim cell) = "null"
                then Ok Value.Null
                else if domain = Value.DStr then Ok (Value.Str cell)
                else
                  Result.map_error
                    (fun e -> Fmt.str "csv line %d, column %s: %s" lineno col e)
                    (Value.parse domain cell)
              in
              Ok ((col, v) :: bindings))
            (Ok []) header cells
          |> Result.map Tuple.make
      in
      let* tuples =
        List.fold_left
          (fun acc (i, line) ->
            let* ts = acc in
            let* t = parse_row (i + 2) line in
            Ok (t :: ts))
          (Ok [])
          (List.mapi (fun i l -> i, l) data_lines)
      in
      Result.map_error Relation.error_to_string
        (Relation.of_list schema (List.rev tuples))

let escape_cell s =
  let needs_quote =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n') s
    || String.lowercase_ascii s = "null"
  in
  if needs_quote then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let dump r =
  let attrs = Schema.attribute_names (Relation.schema r) in
  let cell t a =
    match Tuple.get t a with
    | Value.Null -> "null"
    | v -> escape_cell (Value.to_plain_string v)
  in
  let row t = String.concat "," (List.map (cell t) attrs) in
  String.concat "\n"
    (String.concat "," attrs :: List.map row (Relation.to_list r))
