type key = Value.t list

let rec compare_key a b =
  match a, b with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a, y :: b ->
      (* The common key values compared here, without a call. *)
      let c =
        match x, y with
        | Value.Str x, Value.Str y -> String.compare x y
        | Value.Int x, Value.Int y -> Int.compare x y
        | _ -> Value.compare x y
      in
      if c <> 0 then c else compare_key a b

(* AVL trees, balanced as the standard library's [Map] balances them:
   sibling heights differ by at most 2. *)
type 'a t = Empty | Node of { l : 'a t; v : key; d : 'a; r : 'a t; h : int }

let height = function Empty -> 0 | Node { h; _ } -> h

let create l v d r =
  let hl = height l and hr = height r in
  Node { l; v; d; r; h = (if hl >= hr then hl + 1 else hr + 1) }

let bal l v d r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match l with
    | Node { l = ll; v = lv; d = ld; r = lr; _ } when height ll >= height lr ->
        create ll lv ld (create lr v d r)
    | Node { l = ll; v = lv; d = ld; r = Node { l = lrl; v = lrv; d = lrd; r = lrr; _ }; _ } ->
        create (create ll lv ld lrl) lrv lrd (create lrr v d r)
    | _ -> invalid_arg "Keymap.bal"
  else if hr > hl + 2 then
    match r with
    | Node { l = rl; v = rv; d = rd; r = rr; _ } when height rr >= height rl ->
        create (create l v d rl) rv rd rr
    | Node { l = Node { l = rll; v = rlv; d = rld; r = rlr; _ }; v = rv; d = rd; r = rr; _ } ->
        create (create l v d rll) rlv rld (create rlr rv rd rr)
    | _ -> invalid_arg "Keymap.bal"
  else create l v d r

let empty = Empty
let is_empty = function Empty -> true | Node _ -> false
let singleton v d = Node { l = Empty; v; d; r = Empty; h = 1 }

let rec add x data = function
  | Empty -> singleton x data
  | Node { l; v; d; r; h } as m ->
      let c = compare_key x v in
      if c = 0 then if d == data then m else Node { l; v = x; d = data; r; h }
      else if c < 0 then
        let ll = add x data l in
        if l == ll then m else bal ll v d r
      else
        let rr = add x data r in
        if r == rr then m else bal l v d rr

let rec find_opt x = function
  | Empty -> None
  | Node { l; v; d; r; _ } ->
      let c = compare_key x v in
      if c = 0 then Some d else find_opt x (if c < 0 then l else r)

let rec mem x = function
  | Empty -> false
  | Node { l; v; r; _ } ->
      let c = compare_key x v in
      c = 0 || mem x (if c < 0 then l else r)

let rec min_binding = function
  | Empty -> raise Not_found
  | Node { l = Empty; v; d; _ } -> v, d
  | Node { l; _ } -> min_binding l

let rec remove_min = function
  | Empty -> invalid_arg "Keymap.remove_min"
  | Node { l = Empty; r; _ } -> r
  | Node { l; v; d; r; _ } -> bal (remove_min l) v d r

let rec remove x = function
  | Empty -> Empty
  | Node { l; v; d; r; _ } as m ->
      let c = compare_key x v in
      if c = 0 then
        match l, r with
        | Empty, t | t, Empty -> t
        | _ ->
            let v', d' = min_binding r in
            bal l v' d' (remove_min r)
      else if c < 0 then
        let ll = remove x l in
        if l == ll then m else bal ll v d r
      else
        let rr = remove x r in
        if r == rr then m else bal l v d rr

let rec cardinal = function Empty -> 0 | Node { l; r; _ } -> cardinal l + 1 + cardinal r

let rec iter f = function
  | Empty -> ()
  | Node { l; v; d; r; _ } ->
      iter f l;
      f v d;
      iter f r

let rec fold f m acc =
  match m with Empty -> acc | Node { l; v; d; r; _ } -> fold f r (f v d (fold f l acc))

let rec exists p = function
  | Empty -> false
  | Node { l; v; d; r; _ } -> p v d || exists p l || exists p r

let keys m =
  let rec go acc = function Empty -> acc | Node { l; v; r; _ } -> go (v :: go acc r) l in
  go [] m

(* The bindings still to visit, in order: a binding, the subtree after
   it, and the rest. *)
type 'a enum = End | More of key * 'a * 'a t * 'a enum

let rec enum m e = match m with Empty -> e | Node { l; v; d; r; _ } -> enum l (More (v, d, r, e))

let equal eq a b =
  let rec go e1 e2 =
    match e1, e2 with
    | End, End -> true
    | End, More _ | More _, End -> false
    | More (v1, d1, r1, e1), More (v2, d2, r2, e2) ->
        compare_key v1 v2 = 0 && eq d1 d2 && go (enum r1 e1) (enum r2 e2)
  in
  go (enum a End) (enum b End)

(* Halves by halves: sibling heights differ by at most one. *)
let of_sorted n ~key ~data =
  let rec build lo hi =
    if lo >= hi then Empty
    else
      let mid = lo + ((hi - lo) / 2) in
      create (build lo mid) (key mid) (data mid) (build (mid + 1) hi)
  in
  build 0 n
