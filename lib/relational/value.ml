type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type domain =
  | DInt
  | DFloat
  | DStr
  | DBool

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | Str _ -> 4

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let is_null = function Null -> true | Bool _ | Int _ | Float _ | Str _ -> false

let domain_of = function
  | Null -> None
  | Int _ -> Some DInt
  | Float _ -> Some DFloat
  | Str _ -> Some DStr
  | Bool _ -> Some DBool

let conforms d v =
  match domain_of v with
  | None -> true
  | Some d' -> d = d'

let domain_name = function
  | DInt -> "int"
  | DFloat -> "float"
  | DStr -> "string"
  | DBool -> "bool"

let domain_of_name s =
  match String.lowercase_ascii s with
  | "int" | "integer" -> Some DInt
  | "float" | "real" | "double" -> Some DFloat
  | "string" | "str" | "text" | "varchar" -> Some DStr
  | "bool" | "boolean" -> Some DBool
  | _ -> None

(* Shortest float rendering that parses back to the same value. *)
let float_to_string f =
  let s15 = Printf.sprintf "%.15g" f in
  if float_of_string s15 = f then s15 else Printf.sprintf "%.17g" f

let pp ppf = function
  | Null -> Fmt.string ppf "null"
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.string ppf (float_to_string f)
  | Str s -> Fmt.pf ppf "%S" s
  | Bool b -> Fmt.bool ppf b

let to_plain_string = function
  | Null -> "null"
  | Int i -> Int.to_string i
  | Float f -> float_to_string f
  | Str s -> s
  | Bool b -> Bool.to_string b

let pp_plain ppf v = Fmt.string ppf (to_plain_string v)

let pp_domain ppf d = Fmt.string ppf (domain_name d)

let to_string v = Fmt.str "%a" pp v

let parse d s =
  let s' = String.trim s in
  if String.lowercase_ascii s' = "null" then Ok Null
  else
    match d with
    | DInt -> (
        match int_of_string_opt s' with
        | Some i -> Ok (Int i)
        | None -> Error (Fmt.str "not an int: %S" s))
    | DFloat -> (
        match float_of_string_opt s' with
        | Some f -> Ok (Float f)
        | None -> Error (Fmt.str "not a float: %S" s))
    | DBool -> (
        match bool_of_string_opt (String.lowercase_ascii s') with
        | Some b -> Ok (Bool b)
        | None -> Error (Fmt.str "not a bool: %S" s))
    | DStr ->
        let unquoted =
          let n = String.length s' in
          if n >= 2 && s'.[0] = '"' && s'.[n - 1] = '"' then
            String.sub s' 1 (n - 2)
          else s'
        in
        Ok (Str unquoted)
