open Relational

module Io = Fsio

let ( let* ) = Result.bind

module M = Obs.Metrics

let m_append_ns = M.histogram "journal.append_ns"
let m_replay_ns = M.histogram "journal.replay_ns"
let m_rotate_ns = M.histogram "journal.rotate_ns"
let m_appends = M.counter "journal.appends"
let m_fsyncs = M.counter "journal.fsyncs"
let m_replays = M.counter "journal.replays"
let m_replayed_records = M.counter "journal.replayed_records"
let m_torn_repairs = M.counter "journal.torn_repairs"
let m_rotations = M.counter "journal.rotations"

let atom = Sexp.atom
let l = Sexp.list

type t = {
  path : string;
  io : Fsio.t;
}

let create ?(io = Fsio.default) path = { path; io }
let path t = t.path
let journal_path store = store ^ ".journal"

(* --- record payloads (S-expressions) --------------------------------- *)

let int_atom i = atom (string_of_int i)

let int_of_sexp e =
  let* a = Sexp.as_atom e in
  match int_of_string_opt a with
  | Some i -> Ok i
  | None -> Error (Fmt.str "journal: bad integer %s" a)

let key_to_sexp key = l (atom "key" :: List.map Store.value_to_sexp key)

let change_to_sexp (key, change) =
  match change with
  | Delta.Added t -> l [ atom "add"; key_to_sexp key; Store.tuple_to_sexp t ]
  | Delta.Removed t -> l [ atom "del"; key_to_sexp key; Store.tuple_to_sexp t ]
  | Delta.Updated { before; after } ->
      l
        [ atom "upd"; key_to_sexp key; Store.tuple_to_sexp before;
          Store.tuple_to_sexp after ]

let delta_to_sexps d =
  List.map
    (fun (rel, changes) ->
      l (atom "rel" :: atom rel :: List.map change_to_sexp changes))
    (Delta.bindings d)

let entry_to_sexp (e : Commit_log.entry) =
  let change =
    match e.Commit_log.change with
    | Commit_log.Delta d -> l (atom "delta" :: delta_to_sexps d)
    | Commit_log.Barrier reason -> l [ atom "barrier"; atom reason ]
  in
  l
    [ atom "entry"; int_atom e.Commit_log.version;
      l [ atom "kind"; atom e.Commit_log.kind ]; change ]

(* Commit records are read by streaming over their tokens with the
   store's row reader, never as a tree ({!Store.read_row}); each reader
   consumes its whole expression and refuses a malformed one with the
   message the tree decoders gave it, shape before contents. *)

module L = Sexp.Lexer

let read_int t tok =
  match tok with
  | L.Atom -> (
      let a = L.text t in
      match int_of_string_opt a with
      | Some i -> Ok i
      | None -> Error (Fmt.str "journal: bad integer %s" a))
  | _ ->
      L.skip t tok;
      Error "sexp: expected an atom"

let read_key t tok =
  match tok with
  | L.Atom -> L.not_a_list t
  | _ ->
      L.shaped t ~bad:"journal: bad key" (fun () ->
          L.want t "key";
          L.elements t Store.read_value)

let read_change t tok =
  match tok with
  | L.Atom -> L.not_a_list t
  | _ ->
      L.shaped t ~bad:"journal: bad change" (fun () ->
          L.want_atom t;
          let kind =
            if L.is t "upd" then `Upd
            else if L.is t "add" then `Add
            else if L.is t "del" then `Del
            else L.give_up ()
          in
          let key = read_key t (L.elem t) in
          let row () = Store.read_row t (L.elem t) in
          let change =
            match kind with
            | `Add -> Result.map (fun r -> Delta.Added r) (row ())
            | `Del -> Result.map (fun r -> Delta.Removed r) (row ())
            | `Upd ->
                let before = row () in
                let after = row () in
                let* before = before in
                let* after = after in
                Ok (Delta.Updated { before; after })
          in
          L.want_close t;
          let* key = key in
          let* change = change in
          Ok (key, change))

let read_relation_changes t tok =
  match tok with
  | L.Atom -> L.not_a_list t
  | _ ->
      L.shaped t ~bad:"journal: bad relation changes" (fun () ->
          L.want t "rel";
          let rel = L.want_text t in
          Result.map (fun changes -> rel, changes) (L.elements t read_change))

let read_entry_change t tok =
  match tok with
  | L.Atom -> L.not_a_list t
  | _ ->
      L.shaped t ~bad:"journal: bad entry change" (fun () ->
          L.want_atom t;
          if L.is t "delta" then
            L.elements t read_relation_changes
            |> Result.map (fun b -> Commit_log.Delta (Delta.of_bindings b))
          else if L.is t "barrier" then begin
            let reason = L.want_text t in
            L.want_close t;
            Ok (Commit_log.Barrier reason)
          end
          else L.give_up ())

let read_entry t tok =
  match tok with
  | L.Atom -> L.not_a_list t
  | _ ->
      L.shaped t ~bad:"journal: bad entry" (fun () ->
          L.want t "entry";
          let version = read_int t (L.elem t) in
          L.want_open t;
          L.want t "kind";
          let kind = L.want_text t in
          L.want_close t;
          let change = read_entry_change t (L.elem t) in
          L.want_close t;
          let* version = version in
          let* change = change in
          Ok { Commit_log.version; kind; change })

(* Header format 2 adds the leader epoch for replication fencing; a
   format-1 header (every journal written before epochs existed) reads
   back as epoch 0, so old stores open unchanged. *)
let header_payload ~base ~epoch =
  Sexp.to_string
    (l
       [ atom "penguin-journal"; atom "2"; l [ atom "base"; int_atom base ];
         l [ atom "epoch"; int_atom epoch ] ])

let header_length ~base ~epoch = 8 + String.length (header_payload ~base ~epoch)

let header_of_payload payload =
  let* doc = Sexp.parse payload in
  let* items = Sexp.as_list doc in
  match items with
  | [ Sexp.Atom "penguin-journal"; Sexp.Atom "1"; Sexp.List [ Sexp.Atom "base"; base ] ] ->
      let* base = int_of_sexp base in
      Ok (base, 0)
  | [ Sexp.Atom "penguin-journal"; Sexp.Atom "2"; Sexp.List [ Sexp.Atom "base"; base ];
      Sexp.List [ Sexp.Atom "epoch"; epoch ] ] ->
      let* base = int_of_sexp base in
      let* epoch = int_of_sexp epoch in
      Ok (base, epoch)
  | _ -> Error "journal: bad header record"

(* One record is one commit batch. *)
type record = Commit_log.entry list

let record_payload entries =
  Sexp.to_string (l (atom "commit" :: List.map entry_to_sexp entries))

let record_of_payload payload =
  Sexp.decode payload (fun t tok ->
      match tok with
      | L.Atom -> L.not_a_list t
      | _ ->
          L.shaped t ~bad:"journal: bad commit record" (fun () ->
              L.want t "commit";
              L.elements t read_entry))

(* --- framing ---------------------------------------------------------- *)

(* Every record is [4-byte BE payload length | 4-byte BE CRC-32 of the
   payload | payload]. A record whose length field runs past the end of
   the file, or whose checksum does not match, marks the start of a torn
   tail: everything before it is trusted, everything from it on is
   discarded (a crash mid-append can only tear the end of the file). *)

let frame payload =
  let len = String.length payload in
  let b = Bytes.create (8 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.set_int32_be b 4 (Crc32.digest payload);
  Bytes.blit_string payload 0 b 8 len;
  Bytes.unsafe_to_string b

(* [(offset, payload) list, clean_bytes, torn_bytes] — each payload is
   tagged with the byte offset its frame starts at, so a tailer can
   resume from [clean_bytes] without re-reading from the header. *)
let decode_frames ?(off0 = 0) content =
  let n = String.length content in
  let rec go off acc =
    if off >= n then List.rev acc, off0 + off, 0
    else if off + 8 > n then List.rev acc, off0 + off, n - off
    else
      let len = Int32.to_int (String.get_int32_be content off) in
      if len < 0 || off + 8 + len > n then List.rev acc, off0 + off, n - off
      else
        let payload = String.sub content (off + 8) len in
        if not (Int32.equal (Crc32.digest payload) (String.get_int32_be content (off + 4)))
        then List.rev acc, off0 + off, n - off
        else go (off + 8 + len) ((off0 + off, payload) :: acc)
  in
  go 0 []

(* --- operations ------------------------------------------------------- *)

let initialize ?(epoch = 0) t ~base =
  Fsio.atomic_write t.io ~path:t.path (frame (header_payload ~base ~epoch))

let append_frame t ?(sync = true) framed =
  Obs.Trace.with_span m_append_ns ~tags:[ "sync", string_of_bool sync ]
  @@ fun () ->
  M.Counter.incr m_appends;
  let* () = t.io.Fsio.write ~path:t.path ~append:true framed in
  let* () =
    if sync then begin
      M.Counter.incr m_fsyncs;
      t.io.Fsio.sync t.path
    end
    else Ok ()
  in
  Ok (String.length framed)

let append t ?sync entries =
  if entries = [] then Ok 0 else append_frame t ?sync (frame (record_payload entries))

type replay = {
  base : int;
  epoch : int;
  entries : Commit_log.entry list;
  framed : (int * record) list;
  records : int;
  clean_bytes : int;
  torn_bytes : int;
}

(* Decode the non-header payloads of a journal, naming the record that
   fails ([index] is 0-based in replay order, matching [framed]). *)
let decode_trail ~path framed =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | (off, payload) :: rest -> (
        match record_of_payload payload with
        | Ok r -> go (i + 1) ((off, r) :: acc) rest
        | Error m ->
            Error
              (Error.corrupt_record ~path ~record:i
                 (Fmt.str "%s (checksummed record %d at byte %d)" m i off)))
  in
  go 0 [] framed

let replay t =
  Obs.Trace.with_span m_replay_ns @@ fun () ->
  M.Counter.incr m_replays;
  let* content = t.io.Fsio.read t.path in
  match content with
  | None -> Ok None
  | Some content -> (
      let frames, clean_bytes, torn_bytes = decode_frames content in
      match frames with
      | [] ->
          Error
            (Error.corrupt_record ~path:t.path
               (Fmt.str "journal: unreadable header (%d byte(s), %d torn)"
                  clean_bytes torn_bytes))
      | (_, header) :: records ->
          let* base, epoch =
            Result.map_error
              (fun m -> Error.corrupt_record ~path:t.path m)
              (header_of_payload header)
          in
          let* framed = decode_trail ~path:t.path records in
          let entries = List.concat_map snd framed in
          M.Counter.add m_replayed_records (List.length records);
          Ok
            (Some
               {
                 base;
                 epoch;
                 entries;
                 framed;
                 records = List.length records;
                 clean_bytes;
                 torn_bytes;
               }))

(* Incremental tail read: the complete, checksum-valid frames starting
   at byte [off], without touching the bytes before it. *)
let tail t ~off =
  let* content = t.io.Fsio.read_from ~path:t.path ~off ~len:None in
  match content with
  | None -> Ok None
  | Some content ->
      let frames, clean, torn = decode_frames ~off0:off content in
      Ok (Some (frames, clean, torn))

(* Peek at the header record only (the first kilobyte is orders of
   magnitude more than a header frame needs). *)
let read_header t =
  let* content = t.io.Fsio.read_from ~path:t.path ~off:0 ~len:(Some 1024) in
  match content with
  | None -> Ok None
  | Some content -> (
      match decode_frames content with
      | (_, header) :: _, _, _ ->
          let* base, epoch =
            Result.map_error
              (fun m -> Error.corrupt_record ~path:t.path m)
              (header_of_payload header)
          in
          Ok (Some (base, epoch))
      | [], clean, torn ->
          Error
            (Error.corrupt_record ~path:t.path
               (Fmt.str "journal: unreadable header (%d byte(s), %d torn)"
                  clean torn)))

let truncate_torn t ~clean_bytes =
  let* content = t.io.Fsio.read t.path in
  match content with
  | None -> Error (Error.corrupt_record ~path:t.path "journal: vanished during repair")
  | Some content ->
      if clean_bytes > String.length content then
        Error (Error.corrupt_record ~path:t.path "journal: shrank during repair")
      else
        let* () =
          Fsio.atomic_write t.io ~path:t.path (String.sub content 0 clean_bytes)
        in
        M.Counter.incr m_torn_repairs;
        Ok ()

let sync_name t = t.io.Fsio.sync (Filename.dirname t.path)

let rotate ?(epoch = 0) t ~snapshot_path ~snapshot ~base =
  (* Snapshot first, then compact: a crash between the two leaves a
     newer snapshot under the old journal, and replay skips the entries
     the snapshot already contains (entry version <= snapshot version).
     After the rename the journal is a header at the snapshot's
     version, so a crash on either side of it reopens at [base]. *)
  Obs.Trace.with_span m_rotate_ns @@ fun () ->
  let* () = Fsio.atomic_write t.io ~path:snapshot_path snapshot in
  let* () = initialize ~epoch t ~base in
  M.Counter.incr m_rotations;
  Ok ()
