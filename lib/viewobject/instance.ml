open Relational

type t = {
  label : string;
  relation : string;
  tuple : Tuple.t;
  children : (string * t list) list;
}

let make ~label ~relation ~tuple ~children = { label; relation; tuple; children }

let leaf ~label ~relation tuple = { label; relation; tuple; children = [] }

let children_of i label =
  match List.assoc_opt label i.children with Some cs -> cs | None -> []

let with_children i label cs =
  if List.mem_assoc label i.children then
    {
      i with
      children =
        List.map (fun (l, old) -> if l = label then l, cs else l, old) i.children;
    }
  else { i with children = i.children @ [ label, cs ] }

let with_tuple i tuple = { i with tuple }

let rec flatten i =
  (i.label, i.tuple)
  :: List.concat_map (fun (_, cs) -> List.concat_map flatten cs) i.children

let count_nodes i = List.length (flatten i)

let rec equal a b =
  a.label = b.label && a.relation = b.relation
  && Tuple.equal a.tuple b.tuple
  && List.length a.children = List.length b.children
  && List.for_all2
       (fun (l1, cs1) (l2, cs2) ->
         l1 = l2
         && List.length cs1 = List.length cs2
         && List.for_all2 equal cs1 cs2)
       a.children b.children

let conforms (vo : Definition.t) inst =
  let fail fmt = Fmt.kstr (fun m -> Error m) fmt in
  let rec go (dn : Definition.node) i =
    if i.label <> dn.label then
      fail "instance node %s does not match definition node %s" i.label dn.label
    else if i.relation <> dn.relation then
      fail "instance node %s is on relation %s, expected %s" i.label i.relation
        dn.relation
    else
      match
        List.find_opt
          (fun a -> not (List.mem a dn.attrs))
          (Tuple.attributes i.tuple)
      with
      | Some a ->
          fail "instance node %s binds %s outside its projection" i.label a
      | None ->
          List.fold_left
            (fun acc (cn : Definition.node) ->
              match acc with
              | Error _ -> acc
              | Ok () ->
                  let subs = children_of i cn.label in
                  let singleton_expected =
                    match List.rev cn.path with
                    | [] -> false
                    | last :: _ -> (
                        match last.Structural.Schema_graph.conn.Structural.Connection.kind,
                              last.Structural.Schema_graph.forward with
                        | Structural.Connection.Reference, true -> true
                        | Structural.Connection.Subset, true -> true
                        | _, _ -> false)
                  in
                  if singleton_expected && List.length subs > 1 then
                    fail
                      "instance node %s: child %s must have at most one \
                       sub-instance (n:1 or subset connection)"
                      i.label cn.label
                  else
                    List.fold_left
                      (fun acc sub ->
                        match acc with Error _ -> acc | Ok () -> go cn sub)
                      (Ok ()) subs)
            (Ok ()) dn.children
  in
  go vo.root inst

let to_ascii inst =
  let buf = Buffer.create 256 in
  let add = Buffer.add_string buf in
  let add_tuple t =
    List.iteri
      (fun n (a, v) ->
        if n > 0 then add ", ";
        add a;
        add "=";
        add (Value.to_plain_string v))
      (Tuple.bindings t)
  in
  let rec go indent i =
    add indent;
    add "(";
    add i.label;
    add ": ";
    add_tuple i.tuple;
    if List.for_all (fun (_, cs) -> cs = []) i.children then add ")\n"
    else begin
      add "\n";
      List.iter (fun (_, cs) -> List.iter (go (indent ^ "  ")) cs) i.children;
      add indent;
      add ")\n"
    end
  in
  go "" inst;
  Buffer.contents buf

let pp ppf i = Fmt.string ppf (to_ascii i)
