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

(* The printed width of an atom, without building it. *)
let atom_width s =
  if needs_quoting s then
    String.fold_left
      (fun n c ->
        match c with '"' | '\\' | '\n' | '\t' | '\r' -> n + 2 | _ -> n + 1)
      2 s
  else String.length s

(* Pretty printing: short lists on one line, long ones indented. A list
   is short when its flat width — 2 for the parentheses plus each
   element's width and one separator — is at most 72. [spend budget e]
   is what is left of [budget] once [e] is printed flat, or a negative
   number as soon as the budget is spent; so each check visits at most
   about 72 nodes and rendering stays linear. *)
let rec spend budget = function
  | Atom s -> if String.length s > budget then -1 else budget - atom_width s
  | List l -> spend_items (budget - 2) l

and spend_items budget = function
  | _ when budget < 0 -> budget
  | [] -> budget
  | e :: rest -> spend_items (spend budget e - 1) rest

let rec render_flat buf = function
  | Atom s -> add_atom buf s
  | List l ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i e ->
          if i > 0 then Buffer.add_char buf ' ';
          render_flat buf e)
        l;
      Buffer.add_char buf ')'

let rec render buf indent e =
  match e with
  | Atom s -> add_atom buf s
  | List _ when spend 72 e >= 0 -> render_flat buf e
  | List l ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i e ->
          if i > 0 then begin
            Buffer.add_char buf '\n';
            for _ = 0 to indent do Buffer.add_char buf ' ' done
          end;
          render buf (indent + 1) e)
        l;
      Buffer.add_char buf ')'

let to_string e =
  let buf = Buffer.create 256 in
  render buf 0 e;
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
