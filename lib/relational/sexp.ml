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

(* --- the tokenizer ------------------------------------------------------ *)

type sexp = t

module Lexer = struct
  type token = Open | Close | Atom | Eof

  exception Syntax of string

  type t = {
    input : string;
    mutable pos : int;  (* the next unread byte *)
    mutable depth : int;  (* lists opened and not yet closed *)
    mutable start : int;  (* the last token's first byte... *)
    mutable start_depth : int;  (* ... and the depth before it *)
    mutable a_start : int;  (* the last atom's text, quotes excluded *)
    mutable a_end : int;
    mutable escaped : bool;  (* whether that text holds an escape *)
    mutable interned : string list;  (* in the order first seen, at most [max_interned] *)
    mutable n_interned : int;
    mutable after_hit : string list;  (* those after the one [intern] last found *)
  }

  let max_interned = 64

  let create input =
    {
      input;
      pos = 0;
      depth = 0;
      start = 0;
      start_depth = 0;
      a_start = 0;
      a_end = 0;
      escaped = false;
      interned = [];
      n_interned = 0;
      after_hit = [];
    }

  let rec skip_ws s n i =
    if i >= n then i
    else
      match String.unsafe_get s i with
      | ' ' | '\t' | '\n' | '\r' -> skip_ws s n (i + 1)
      | ';' -> (
          match String.index_from_opt s i '\n' with
          | Some j -> skip_ws s n (j + 1)
          | None -> n)
      | _ -> i

  let rec bare_end s n i =
    if i >= n then i
    else
      match String.unsafe_get s i with
      | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' -> i
      | _ -> bare_end s n (i + 1)

  (* The closing quote's offset; [t.escaped] records a backslash. *)
  let rec quoted_end t s n i =
    if i >= n then raise (Syntax "sexp: unterminated string")
    else
      match String.unsafe_get s i with
      | '"' -> i
      | '\\' ->
          if i + 1 >= n then raise (Syntax "sexp: dangling escape");
          t.escaped <- true;
          quoted_end t s n (i + 2)
      | _ -> quoted_end t s n (i + 1)

  let next t =
    let s = t.input in
    let n = String.length s in
    let i = skip_ws s n t.pos in
    t.start <- i;
    t.start_depth <- t.depth;
    if i >= n then begin
      t.pos <- n;
      if t.depth > 0 then raise (Syntax "sexp: unterminated list");
      Eof
    end
    else
      match String.unsafe_get s i with
      | '(' ->
          t.pos <- i + 1;
          t.depth <- t.depth + 1;
          Open
      | ')' ->
          if t.depth = 0 then
            raise (Syntax (Fmt.str "sexp: unexpected ')' at offset %d" i));
          t.pos <- i + 1;
          t.depth <- t.depth - 1;
          Close
      | '"' ->
          t.escaped <- false;
          let e = quoted_end t s n (i + 1) in
          t.a_start <- i + 1;
          t.a_end <- e;
          t.pos <- e + 1;
          Atom
      | _ ->
          let e = bare_end s n (i + 1) in
          t.escaped <- false;
          t.a_start <- i;
          t.a_end <- e;
          t.pos <- e;
          Atom

  let text t =
    let s = t.input in
    if not t.escaped then String.sub s t.a_start (t.a_end - t.a_start)
    else begin
      let buf = Buffer.create (t.a_end - t.a_start) in
      let i = ref t.a_start in
      while !i < t.a_end do
        (match s.[!i] with
        | '\\' ->
            incr i;
            Buffer.add_char buf
              (match s.[!i] with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | c -> c)
        | c -> Buffer.add_char buf c);
        incr i
      done;
      Buffer.contents buf
    end

  (* [s] from [off] and [a] agree on bytes [k, len): eight at a time,
     then one by one. *)
  let rec same s off a k len =
    if k + 8 <= len then
      Int64.equal (String.get_int64_le s (off + k)) (String.get_int64_le a k)
      && same s off a (k + 8) len
    else
      k >= len
      || Char.equal (String.unsafe_get s (off + k)) (String.unsafe_get a k)
         && same s off a (k + 1) len

  let is t a =
    if t.escaped then String.equal (text t) a
    else
      let len = t.a_end - t.a_start in
      len = String.length a && same t.input t.a_start a 0 len

  let rec find t = function
    | [] -> []
    | a :: _ as names when is t a -> names
    | _ :: rest -> find t rest

  (* Names recur in the order they were first seen (a relation's
     attributes, row after row), so the one after the last found is
     tried first. *)
  let intern t =
    let found =
      match t.after_hit with
      | a :: _ as names when is t a -> names
      | _ -> find t t.interned
    in
    match found with
    | a :: rest ->
        t.after_hit <- rest;
        a
    | [] ->
        let a = text t in
        if t.n_interned < max_interned then begin
          t.interned <- t.interned @ [ a ];
          t.n_interned <- t.n_interned + 1
        end;
        a

  let leave t d = while t.depth >= d do ignore (next t) done

  let skip t tok = match tok with Open -> leave t t.depth | Close | Atom | Eof -> ()

  let rec read_tok t tok : sexp =
    match tok with
    | Atom -> (Atom (text t) : sexp)
    | Open ->
        let rec items acc =
          match next t with
          | Close -> (List (List.rev acc) : sexp)
          | tok -> items (read_tok t tok :: acc)
        in
        items []
    | Close | Eof -> raise (Syntax "sexp: unexpected end of input")

  let read t = read_tok t (next t)

  type mark = { off : int; off_depth : int }

  let mark t = { off = t.start; off_depth = t.start_depth }

  let reset t m =
    t.pos <- m.off;
    t.depth <- m.off_depth

  exception Shape

  let give_up () = raise Shape
  let elem t = match next t with Close -> raise Shape | tok -> tok
  let want_atom t = match next t with Atom -> () | Open | Close | Eof -> raise Shape
  let want t a =
    want_atom t;
    if not (is t a) then raise Shape

  let want_text t =
    want_atom t;
    text t

  let want_open t = match next t with Open -> () | Close | Atom | Eof -> raise Shape
  let want_close t = match next t with Close -> () | Open | Atom | Eof -> raise Shape

  let shaped t ~bad f =
    let d = t.depth in
    try f ()
    with Shape ->
      leave t d;
      Error bad

  let not_a_list t = Error (Fmt.str "sexp: expected a list, got atom %s" (text t))

  let elements t f =
    let d = t.depth in
    let rec go acc =
      match next t with
      | Close -> Ok (List.rev acc)
      | tok -> (
          match f t tok with
          | Ok x -> go (x :: acc)
          | Error _ as e -> leave t d; e)
    in
    go []
end

let validate input =
  let t = Lexer.create input in
  let rec go count =
    match Lexer.next t with
    | Lexer.Eof -> count
    | tok ->
        Lexer.skip t tok;
        go (count + 1)
  in
  match go 0 with
  | 1 -> Ok ()
  | 0 -> Error "sexp: empty input"
  | _ -> Error "sexp: expected a single expression"
  | exception Lexer.Syntax e -> Error e

let decode input f =
  let t = Lexer.create input in
  let result =
    try
      match Lexer.next t with
      | Lexer.Eof -> Error "sexp: empty input"
      | tok -> (
          match f t tok with
          | Ok _ as ok -> (
              match Lexer.next t with
              | Lexer.Eof -> ok
              | _ -> Error "sexp: expected a single expression")
          | Error _ as e -> e)
    with Lexer.Syntax e -> Error e
  in
  (* The first syntax error, wherever it lies, wins over what the
     decoder found: a document that does not parse is reported as such,
     as {!parse} reports it. *)
  match result with
  | Ok _ -> result
  | Error e -> ( match validate input with Ok () -> Error e | Error s -> Error s)

let parse_many input =
  let t = Lexer.create input in
  let rec go acc =
    match Lexer.next t with
    | Lexer.Eof -> Ok (List.rev acc)
    | tok -> go (Lexer.read_tok t tok :: acc)
  in
  try go [] with Lexer.Syntax e -> Error e

let parse input =
  match parse_many input with
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
