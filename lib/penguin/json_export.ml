open Relational
open Structural
open Viewobject

let json_string s = Obs.Json.to_string (Obs.Json.Str s)

(* Ints print exactly, past 2^53 too; a float is a JSON number, or null
   when it is not finite. *)
let value = function
  | Value.Null -> "null"
  | Value.Int i -> string_of_int i
  | Value.Float f -> Obs.Json.to_string (Obs.Json.Num f)
  | Value.Str s -> json_string s
  | Value.Bool b -> string_of_bool b

(* A child node is structurally singular when its last connection is a
   forward reference (n:1) or forward subset (1:[0,1]). *)
let singular (cn : Definition.node) =
  match List.rev cn.Definition.path with
  | [] -> false
  | last :: _ -> (
      last.Schema_graph.forward
      &&
      match last.Schema_graph.conn.Connection.kind with
      | Connection.Reference | Connection.Subset -> true
      | Connection.Ownership -> false)

let rec render buf (dn : Definition.node) (i : Instance.t) =
  Buffer.add_char buf '{';
  let first = ref true in
  let comma () =
    if !first then first := false else Buffer.add_char buf ','
  in
  List.iter
    (fun a ->
      comma ();
      Buffer.add_string buf (json_string a);
      Buffer.add_char buf ':';
      Buffer.add_string buf (value (Tuple.get i.Instance.tuple a)))
    dn.Definition.attrs;
  List.iter
    (fun (cn : Definition.node) ->
      comma ();
      Buffer.add_string buf (json_string cn.Definition.label);
      Buffer.add_char buf ':';
      let subs = Instance.children_of i cn.Definition.label in
      if singular cn then (
        match subs with
        | [] -> Buffer.add_string buf "null"
        | sub :: _ -> render buf cn sub)
      else begin
        Buffer.add_char buf '[';
        List.iteri
          (fun j sub ->
            if j > 0 then Buffer.add_char buf ',';
            render buf cn sub)
          subs;
        Buffer.add_char buf ']'
      end)
    dn.Definition.children;
  Buffer.add_char buf '}'

let instance (vo : Definition.t) i =
  let buf = Buffer.create 256 in
  render buf vo.Definition.root i;
  Buffer.contents buf

let instances vo is =
  "[" ^ String.concat "," (List.map (instance vo) is) ^ "]"
