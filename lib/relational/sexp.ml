type t =
  | Atom of string
  | List of t list

let atom s = Atom s
let list l = List l

let rec equal a b =
  match a, b with
  | Atom x, Atom y -> String.equal x y
  | List x, List y -> List.equal equal x y
  | (Atom _ | List _), _ -> false

let needs_quoting s =
  s = ""
  || String.exists
       (fun c ->
         c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '(' || c = ')'
         || c = '"' || c = ';' || Char.code c < 32)
       s

let add_atom buf s =
  if needs_quoting s then begin
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  end
  else Buffer.add_string buf s

let rec render buf = function
  | Atom s -> add_atom buf s
  | List l ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i e ->
          if i > 0 then Buffer.add_char buf ' ';
          render buf e)
        l;
      Buffer.add_char buf ')'

let to_string e =
  let buf = Buffer.create 256 in
  render buf e;
  Buffer.contents buf

let pp ppf e = Fmt.string ppf (to_string e)

(* --- parsing --------------------------------------------------------- *)

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
    else if input.[i] = ')' then Ok (List (List.rev acc), i + 1)
    else
      match parse_one i with
      | Error e -> Error e
      | Ok (e, i) -> parse_items i (e :: acc)
  and parse_quoted i buf =
    if i >= n then Error "sexp: unterminated string"
    else
      match input.[i] with
      | '"' -> Ok (Atom (Buffer.contents buf), i + 1)
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
    then Ok (Atom (Buffer.contents buf), i)
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

let parse_many = parse_all

let parse input =
  match parse_all input with
  | Ok [ e ] -> Ok e
  | Ok [] -> Error "sexp: empty input"
  | Ok _ -> Error "sexp: expected a single expression"
  | Error e -> Error e

(* --- decoding helpers ------------------------------------------------ *)

let as_atom = function
  | Atom s -> Ok s
  | List _ -> Error "sexp: expected an atom"

let as_list = function
  | List l -> Ok l
  | Atom a -> Error (Fmt.str "sexp: expected a list, got atom %s" a)

let keyed_all k items =
  List.filter_map
    (function List (Atom k' :: rest) when k' = k -> Some rest | _ -> None)
    items

let keyed_opt k items =
  match keyed_all k items with [ rest ] -> Some rest | _ -> None

let keyed k items =
  match keyed_all k items with
  | [ rest ] -> Ok rest
  | [] -> Error (Fmt.str "sexp: missing (%s ...)" k)
  | _ -> Error (Fmt.str "sexp: duplicate (%s ...)" k)
