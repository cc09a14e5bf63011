type span = {
  id : int;
  parent : int;
  depth : int;
  name : string;
  mutable tags : (string * string) list;
  start_ns : float;
  mutable duration_ns : float;
}

type sink = span -> unit

let the_sink : sink option ref = ref None
let stack : span list ref = ref []
let next_id = ref 1

let set_sink s =
  the_sink := s;
  stack := [];
  next_id := 1

let active () = Option.is_some !the_sink

let with_span ?(tags = []) name f =
  match !the_sink with
  | None -> f ()
  | Some emit ->
      let parent, depth =
        match !stack with [] -> 0, 0 | s :: _ -> s.id, s.depth + 1
      in
      let sp =
        {
          id = !next_id;
          parent;
          depth;
          name;
          tags;
          start_ns = Metrics.now_ns ();
          duration_ns = 0.;
        }
      in
      incr next_id;
      stack := sp :: !stack;
      let finally () =
        sp.duration_ns <- Metrics.now_ns () -. sp.start_ns;
        (* Pop through the entry even if an exception unwound past
           intermediate frames without their finalizers running. *)
        (match !stack with
        | s :: rest when s == sp -> stack := rest
        | other -> (
            match List.find_opt (fun s -> s == sp) other with
            | None -> ()
            | Some _ ->
                let rec drop = function
                  | s :: rest -> if s == sp then rest else drop rest
                  | [] -> []
                in
                stack := drop other));
        emit sp
      in
      Fun.protect ~finally f

let tag k v =
  match !stack with
  | [] -> ()
  | sp :: _ -> sp.tags <- sp.tags @ [ k, v ]

(* --- sinks ------------------------------------------------------------ *)

module Ring = struct
  type t = {
    capacity : int;
    buf : span option array;
    mutable next : int;  (* total spans ever written *)
  }

  let create capacity =
    let capacity = max capacity 1 in
    { capacity; buf = Array.make capacity None; next = 0 }

  let sink r sp =
    r.buf.(r.next mod r.capacity) <- Some sp;
    r.next <- r.next + 1

  let sink r = sink r

  let contents r =
    let n = min r.next r.capacity in
    List.init n (fun i ->
        r.buf.((r.next - n + i) mod r.capacity))
    |> List.filter_map Fun.id

  let clear r =
    Array.fill r.buf 0 r.capacity None;
    r.next <- 0
end

(* --- line formats ----------------------------------------------------- *)

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let sexp_line sp =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "(span (id %d) (parent %d) (depth %d) (name %s)" sp.id
       sp.parent sp.depth (quote sp.name));
  Buffer.add_string b
    (Printf.sprintf " (start_ns %.0f) (dur_ns %.0f)" sp.start_ns
       sp.duration_ns);
  if sp.tags <> [] then begin
    Buffer.add_string b " (tags";
    List.iter
      (fun (k, v) -> Buffer.add_string b (Printf.sprintf " (%s %s)" k (quote v)))
      sp.tags;
    Buffer.add_string b ")"
  end;
  Buffer.add_string b ")";
  Buffer.contents b

let channel_sink oc sp =
  output_string oc (sexp_line sp);
  output_char oc '\n';
  flush oc
