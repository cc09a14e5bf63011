let render ~header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  (* Rows as padded arrays: cell access per width pass is O(1) instead of
     List.nth per cell. *)
  let to_array r =
    let a = Array.make ncols "" in
    List.iteri (fun i c -> if i < ncols then a.(i) <- c) r;
    a
  in
  let arrays = List.map to_array all in
  let widths = Array.make ncols 0 in
  List.iter
    (fun a ->
      Array.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) a)
    arrays;
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let line a =
    "| "
    ^ String.concat " | "
        (Array.to_list (Array.mapi (fun i c -> pad c widths.(i)) a))
    ^ " |"
  in
  let rule =
    "+"
    ^ String.concat "+"
        (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "+"
  in
  match arrays with
  | [] -> rule
  | header_a :: rows_a ->
      String.concat "\n"
        ((rule :: line header_a :: rule :: List.map line rows_a) @ [ rule ])

let of_tuples ~attrs tuples =
  let row t =
    List.map (fun a -> Value.to_plain_string (Tuple.get t a)) attrs
  in
  render ~header:attrs (List.map row tuples)

let of_relation r =
  let attrs = Schema.attribute_names (Relation.schema r) in
  of_tuples ~attrs (Relation.to_list r)

let of_rset (rs : Algebra.rset) = of_tuples ~attrs:rs.attrs rs.rows
