open Relational
open Viewobject

type t =
  | Insert of Instance.t
  | Delete of Instance.t
  | Replace of {
      old_instance : Instance.t;
      new_instance : Instance.t;
    }

let insert i = Insert i
let delete i = Delete i
let replace ~old_instance ~new_instance = Replace { old_instance; new_instance }

let kind_name = function
  | Insert _ -> "complete insertion"
  | Delete _ -> "complete deletion"
  | Replace _ -> "replacement"

let tuple_agrees ~at t =
  List.for_all
    (fun (a, v) -> Value.equal (Tuple.get t a) v)
    (Tuple.bindings at)

(* Generic single-occurrence edit: [f] receives the matching sub-instance
   and returns its replacement ([None] = detach). [sel] decides which
   tuples of the labelled node match. *)
let edit_where inst ~label ~sel ~(f : Instance.t -> Instance.t option) =
  let matches = ref 0 in
  let rec go (i : Instance.t) =
    let children =
      List.map
        (fun (l, subs) ->
          let subs' =
            List.filter_map
              (fun (s : Instance.t) ->
                if s.Instance.label = label && sel s.Instance.tuple then begin
                  incr matches;
                  f s
                end
                else Some (go s))
              subs
          in
          l, subs')
        i.Instance.children
    in
    { i with Instance.children }
  in
  let root_matches = inst.Instance.label = label && sel inst.Instance.tuple in
  if root_matches then
    match f inst with
    | Some i -> Ok i
    | None -> Error "cannot detach the root component of an instance"
  else
    let result = go inst in
    match !matches with
    | 1 -> Ok result
    | 0 -> Error (Fmt.str "no sub-instance of node %s matches" label)
    | n -> Error (Fmt.str "%d sub-instances of node %s match; be more specific" n label)

let modify_where inst ~label ~sel ~f =
  edit_where inst ~label ~sel ~f:(fun s ->
      Some { s with Instance.tuple = f s.Instance.tuple })

let detach_where inst ~label ~sel = edit_where inst ~label ~sel ~f:(fun _ -> None)

let attach_where inst ~parent_label ~sel ~child =
  edit_where inst ~label:parent_label ~sel ~f:(fun s ->
      Some
        (Instance.with_children s child.Instance.label
           (Instance.children_of s child.Instance.label @ [ child ])))

let modify_component inst ~label ~at ~f =
  modify_where inst ~label ~sel:(tuple_agrees ~at) ~f

let detach_component inst ~label ~at =
  detach_where inst ~label ~sel:(tuple_agrees ~at)

let attach_component inst ~parent_label ~at ~child =
  attach_where inst ~parent_label ~sel:(tuple_agrees ~at) ~child

let as_replace old_instance result =
  Result.map (fun new_instance -> Replace { old_instance; new_instance }) result

let partial_modify inst ~label ~at ~f =
  as_replace inst (modify_component inst ~label ~at ~f)

let partial_attach inst ~parent_label ~at ~child =
  as_replace inst (attach_component inst ~parent_label ~at ~child)

let partial_detach inst ~label ~at =
  as_replace inst (detach_component inst ~label ~at)

let pp ppf = function
  | Insert i -> Fmt.pf ppf "@[<v>insert instance:@,%a@]" Instance.pp i
  | Delete i -> Fmt.pf ppf "@[<v>delete instance:@,%a@]" Instance.pp i
  | Replace { old_instance; new_instance } ->
      Fmt.pf ppf "@[<v>replace instance:@,%a@,with:@,%a@]" Instance.pp
        old_instance Instance.pp new_instance
