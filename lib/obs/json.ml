type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- printing --------------------------------------------------------- *)

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* The shorter of 15 and 17 significant digits that reads back equal (17
   always does), so integral floats below 1e15 print without a
   fractional part. NaN and infinities are not JSON — emit null,
   matching what the bench harness did for unmeasured rows. *)
let number b f =
  if Float.is_nan f || Float.abs f = infinity then Buffer.add_string b "null"
  else
    let short = Printf.sprintf "%.15g" f in
    Buffer.add_string b
      (if float_of_string short = f then short else Printf.sprintf "%.17g" f)

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num f -> number b f
  | Str s -> escape b s
  | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape b k;
          Buffer.add_char b ':';
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

let rec pp ppf = function
  | (Null | Bool _ | Num _ | Str _) as v -> Fmt.string ppf (to_string v)
  | Arr [] -> Fmt.string ppf "[]"
  | Arr items ->
      Fmt.pf ppf "@[<v 2>[@,%a@]@,]"
        Fmt.(list ~sep:(any ",@,") pp)
        items
  | Obj [] -> Fmt.string ppf "{}"
  | Obj fields ->
      let pp_field ppf (k, v) =
        Fmt.pf ppf "%s: %a" (to_string (Str k)) pp v
      in
      Fmt.pf ppf "@[<v 2>{@,%a@]@,}"
        (Fmt.list ~sep:(Fmt.any ",@,") pp_field)
        fields

(* --- parsing ---------------------------------------------------------- *)

exception Fail of int * string

let parse s =
  let n = String.length s in
  let fail i msg = raise (Fail (i, msg)) in
  let rec skip i =
    if i < n then
      match s.[i] with ' ' | '\t' | '\n' | '\r' -> skip (i + 1) | _ -> i
    else i
  in
  let literal i word v =
    let l = String.length word in
    if i + l <= n && String.sub s i l = word then v, i + l
    else fail i ("expected " ^ word)
  in
  let string_at i =
    (* i points at the opening quote *)
    let b = Buffer.create 16 in
    let rec go i =
      if i >= n then fail i "unterminated string"
      else
        match s.[i] with
        | '"' -> Buffer.contents b, i + 1
        | '\\' ->
            if i + 1 >= n then fail i "unterminated escape"
            else (
              (match s.[i + 1] with
              | '"' -> Buffer.add_char b '"'
              | '\\' -> Buffer.add_char b '\\'
              | '/' -> Buffer.add_char b '/'
              | 'n' -> Buffer.add_char b '\n'
              | 'r' -> Buffer.add_char b '\r'
              | 't' -> Buffer.add_char b '\t'
              | 'b' -> Buffer.add_char b '\b'
              | 'f' -> Buffer.add_char b '\012'
              | 'u' ->
                  if i + 5 >= n then fail i "bad \\u escape"
                  else (
                    match int_of_string_opt ("0x" ^ String.sub s (i + 2) 4) with
                    | None -> fail i "bad \\u escape"
                    | Some code when code < 0x80 ->
                        Buffer.add_char b (Char.chr code)
                    | Some code ->
                        (* Non-ASCII escapes: UTF-8 encode the code point
                           (surrogate pairs are not recombined; the
                           system never emits them). *)
                        if code < 0x800 then (
                          Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F))))
                        else (
                          Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                          Buffer.add_char b
                            (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))))
              | c -> fail i (Printf.sprintf "bad escape \\%c" c));
              let skip = if s.[i + 1] = 'u' then 6 else 2 in
              go (i + skip))
        | c -> Buffer.add_char b c; go (i + 1)
    in
    go (i + 1)
  in
  let number_at i =
    let j = ref i in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !j < n && num_char s.[!j] do incr j done;
    match float_of_string_opt (String.sub s i (!j - i)) with
    | Some f -> Num f, !j
    | None -> fail i "bad number"
  in
  let rec value i =
    let i = skip i in
    if i >= n then fail i "unexpected end of input"
    else
      match s.[i] with
      | 'n' -> literal i "null" Null
      | 't' -> literal i "true" (Bool true)
      | 'f' -> literal i "false" (Bool false)
      | '"' ->
          let str, i = string_at i in
          Str str, i
      | '[' -> array (i + 1) []
      | '{' -> obj (i + 1) []
      | '-' | '0' .. '9' -> number_at i
      | c -> fail i (Printf.sprintf "unexpected character %c" c)
  and array i acc =
    let i = skip i in
    if i < n && s.[i] = ']' then Arr (List.rev acc), i + 1
    else
      let v, i = value i in
      let i = skip i in
      if i < n && s.[i] = ',' then array (i + 1) (v :: acc)
      else if i < n && s.[i] = ']' then Arr (List.rev (v :: acc)), i + 1
      else fail i "expected , or ] in array"
  and obj i acc =
    let i = skip i in
    if i < n && s.[i] = '}' then Obj (List.rev acc), i + 1
    else if i < n && s.[i] = '"' then
      let k, i = string_at i in
      let i = skip i in
      if i >= n || s.[i] <> ':' then fail i "expected : after object key"
      else
        let v, i = value (i + 1) in
        let i = skip i in
        if i < n && s.[i] = ',' then obj (i + 1) ((k, v) :: acc)
        else if i < n && s.[i] = '}' then Obj (List.rev ((k, v) :: acc)), i + 1
        else fail i "expected , or } in object"
    else fail i "expected object key"
  in
  match value 0 with
  | v, i ->
      let i = skip i in
      if i <> n then Error (Printf.sprintf "json: trailing input at byte %d" i)
      else Ok v
  | exception Fail (i, msg) -> Error (Printf.sprintf "json: %s at byte %d" msg i)

let rec equal a b =
  match a, b with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Num a, Num b -> Float.equal a b
  | Str a, Str b -> String.equal a b
  | Arr a, Arr b -> List.length a = List.length b && List.for_all2 equal a b
  | Obj a, Obj b ->
      List.length a = List.length b
      && List.for_all2
           (fun (ka, va) (kb, vb) -> String.equal ka kb && equal va vb)
           a b
  | _ -> false

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_float = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr items -> Some items | _ -> None
