type comparison =
  | Eq
  | Neq
  | Lt
  | Leq
  | Gt
  | Geq

type scalar =
  | S_attr of string
  | S_const of Value.t
  | S_add of scalar * scalar
  | S_sub of scalar * scalar
  | S_mul of scalar * scalar
  | S_div of scalar * scalar
  | S_mod of scalar * scalar
  | S_neg of scalar
  | S_concat of scalar * scalar

type t =
  | True
  | False
  | Cmp of string * comparison * Value.t
  | Cmp_attr of string * comparison * string
  | Cmp_scalar of scalar * comparison * scalar
  | Is_null of string
  | Not_null of string
  | And of t * t
  | Or of t * t
  | Not of t

(* SQL-flavoured arithmetic: Null propagates, int op int = int, float
   promotes, mismatches and division by zero collapse to Null. *)
let arith fi ff a b =
  match a, b with
  | Value.Int x, Value.Int y -> (
      match fi x y with Some v -> Value.Int v | None -> Value.Null)
  | Value.Int x, Value.Float y -> Value.Float (ff (float_of_int x) y)
  | Value.Float x, Value.Int y -> Value.Float (ff x (float_of_int y))
  | Value.Float x, Value.Float y -> Value.Float (ff x y)
  | (Value.Null | Value.Str _ | Value.Bool _ | Value.Int _ | Value.Float _), _
    ->
      Value.Null

let rec eval_scalar tup = function
  | S_attr a -> Tuple.get tup a
  | S_const v -> v
  | S_add (x, y) ->
      arith (fun a b -> Some (a + b)) ( +. ) (eval_scalar tup x) (eval_scalar tup y)
  | S_sub (x, y) ->
      arith (fun a b -> Some (a - b)) ( -. ) (eval_scalar tup x) (eval_scalar tup y)
  | S_mul (x, y) ->
      arith (fun a b -> Some (a * b)) ( *. ) (eval_scalar tup x) (eval_scalar tup y)
  | S_div (x, y) ->
      arith
        (fun a b -> if b = 0 then None else Some (a / b))
        (fun a b -> a /. b)
        (eval_scalar tup x) (eval_scalar tup y)
  | S_mod (x, y) ->
      arith
        (fun a b -> if b = 0 then None else Some (a mod b))
        Float.rem (eval_scalar tup x) (eval_scalar tup y)
  | S_neg x -> (
      match eval_scalar tup x with
      | Value.Int i -> Value.Int (-i)
      | Value.Float f -> Value.Float (-.f)
      | Value.Null | Value.Str _ | Value.Bool _ -> Value.Null)
  | S_concat (x, y) -> (
      match eval_scalar tup x, eval_scalar tup y with
      | Value.Str a, Value.Str b -> Value.Str (a ^ b)
      | _, _ -> Value.Null)

let compare_values op v1 v2 =
  if Value.is_null v1 || Value.is_null v2 then false
  else
    let c = Value.compare v1 v2 in
    match op with
    | Eq -> c = 0
    | Neq -> c <> 0
    | Lt -> c < 0
    | Leq -> c <= 0
    | Gt -> c > 0
    | Geq -> c >= 0

let rec eval p t =
  match p with
  | True -> true
  | False -> false
  | Cmp (a, op, v) -> compare_values op (Tuple.get t a) v
  | Cmp_attr (a, op, b) -> compare_values op (Tuple.get t a) (Tuple.get t b)
  | Cmp_scalar (x, op, y) ->
      compare_values op (eval_scalar t x) (eval_scalar t y)
  | Is_null a -> Value.is_null (Tuple.get t a)
  | Not_null a -> not (Value.is_null (Tuple.get t a))
  | And (p1, p2) -> eval p1 t && eval p2 t
  | Or (p1, p2) -> eval p1 t || eval p2 t
  | Not p1 -> not (eval p1 t)

let ( &&& ) p1 p2 =
  match p1, p2 with
  | True, p | p, True -> p
  | False, _ | _, False -> False
  | _ -> And (p1, p2)

let ( ||| ) p1 p2 =
  match p1, p2 with
  | False, p | p, False -> p
  | True, _ | _, True -> True
  | _ -> Or (p1, p2)

let eq a v = Cmp (a, Eq, v)
let eq_str a s = Cmp (a, Eq, Value.Str s)
let eq_int a i = Cmp (a, Eq, Value.Int i)
let lt_int a i = Cmp (a, Lt, Value.Int i)
let gt_int a i = Cmp (a, Gt, Value.Int i)

let conj ps = List.fold_left ( &&& ) True ps

let rec scalar_attributes acc = function
  | S_attr a -> if List.mem a acc then acc else a :: acc
  | S_const _ -> acc
  | S_add (x, y) | S_sub (x, y) | S_mul (x, y) | S_div (x, y) | S_mod (x, y)
  | S_concat (x, y) ->
      scalar_attributes (scalar_attributes acc x) y
  | S_neg x -> scalar_attributes acc x

let attributes p =
  let rec go acc = function
    | True | False -> acc
    | Cmp (a, _, _) | Is_null a | Not_null a ->
        if List.mem a acc then acc else a :: acc
    | Cmp_attr (a, _, b) ->
        let acc = if List.mem a acc then acc else a :: acc in
        if List.mem b acc then acc else b :: acc
    | Cmp_scalar (x, _, y) -> scalar_attributes (scalar_attributes acc x) y
    | And (p1, p2) | Or (p1, p2) -> go (go acc p1) p2
    | Not p1 -> go acc p1
  in
  List.rev (go [] p)

(* The constant each [key] attribute is bound to by an [Eq] in [p]'s
   positive conjunction (the first such binding), when all of them are.
   [Or] and [Not] hide their bindings: a key under them still scans. *)
let fixed_key key p =
  let rec bound a = function
    | Cmp (b, Eq, v) when String.equal a b -> Some v
    | And (p1, p2) -> (
        match bound a p1 with None -> bound a p2 | Some _ as v -> v)
    | True | False | Cmp _ | Cmp_attr _ | Cmp_scalar _ | Is_null _
    | Not_null _ | Or _ | Not _ ->
        None
  in
  let vs = List.filter_map (fun a -> bound a p) key in
  if List.compare_lengths vs key = 0 then Some vs else None

let matches_tuple t =
  conj
    (List.map
       (fun (n, v) -> if Value.is_null v then Is_null n else Cmp (n, Eq, v))
       (Tuple.bindings t))

let pp_comparison ppf op =
  Fmt.string ppf
    (match op with
    | Eq -> "="
    | Neq -> "<>"
    | Lt -> "<"
    | Leq -> "<="
    | Gt -> ">"
    | Geq -> ">=")

let rec pp_scalar ppf = function
  | S_attr a -> Fmt.string ppf a
  | S_const v -> Value.pp ppf v
  | S_add (x, y) -> Fmt.pf ppf "(%a + %a)" pp_scalar x pp_scalar y
  | S_sub (x, y) -> Fmt.pf ppf "(%a - %a)" pp_scalar x pp_scalar y
  | S_mul (x, y) -> Fmt.pf ppf "(%a * %a)" pp_scalar x pp_scalar y
  | S_div (x, y) -> Fmt.pf ppf "(%a / %a)" pp_scalar x pp_scalar y
  | S_mod (x, y) -> Fmt.pf ppf "(%a %% %a)" pp_scalar x pp_scalar y
  | S_neg x -> Fmt.pf ppf "(- %a)" pp_scalar x
  | S_concat (x, y) -> Fmt.pf ppf "(%a || %a)" pp_scalar x pp_scalar y

let rec pp ppf = function
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | Cmp (a, op, v) -> Fmt.pf ppf "%s %a %a" a pp_comparison op Value.pp v
  | Cmp_attr (a, op, b) -> Fmt.pf ppf "%s %a %s" a pp_comparison op b
  | Cmp_scalar (x, op, y) ->
      Fmt.pf ppf "%a %a %a" pp_scalar x pp_comparison op pp_scalar y
  | Is_null a -> Fmt.pf ppf "%s is null" a
  | Not_null a -> Fmt.pf ppf "%s is not null" a
  | And (p1, p2) -> Fmt.pf ppf "(%a and %a)" pp p1 pp p2
  | Or (p1, p2) -> Fmt.pf ppf "(%a or %a)" pp p1 pp p2
  | Not p1 -> Fmt.pf ppf "(not %a)" pp p1
