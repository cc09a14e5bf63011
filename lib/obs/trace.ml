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

(* Pop [sp] off the open-span stack, through the entry even if an
   exception unwound past intermediate frames without their finalizers
   running. *)
let pop sp =
  match !stack with
  | s :: rest when s == sp -> stack := rest
  | other ->
      let rec drop = function
        | s :: rest -> if s == sp then rest else drop rest
        | [] -> other
      in
      stack := drop other

let span_name h =
  let n = Metrics.Histogram.name h in
  if String.ends_with ~suffix:"_ns" n then String.sub n 0 (String.length n - 3)
  else n

let with_span ?(tags = []) h f =
  match !the_sink with
  | None when not (Metrics.enabled ()) -> f ()
  | None ->
      let t0 = Metrics.now_ns () in
      Fun.protect f ~finally:(fun () ->
          Metrics.Histogram.observe h (Metrics.now_ns () -. t0))
  | Some emit ->
      let parent, depth =
        match !stack with [] -> 0, 0 | s :: _ -> s.id, s.depth + 1
      in
      let sp =
        {
          id = !next_id;
          parent;
          depth;
          name = span_name h;
          tags;
          start_ns = Metrics.now_ns ();
          duration_ns = 0.;
        }
      in
      incr next_id;
      stack := sp :: !stack;
      Fun.protect f ~finally:(fun () ->
          sp.duration_ns <- Metrics.now_ns () -. sp.start_ns;
          Metrics.Histogram.observe h sp.duration_ns;
          pop sp;
          emit sp)

let tag k v =
  match !stack with
  | [] -> ()
  | sp :: _ -> sp.tags <- sp.tags @ [ k, v ]

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
