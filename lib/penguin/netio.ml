(* Shared socket plumbing for the network-facing layers: the listener
   (Server's event loop) and its clients frame with the journal wire
   format and classify faults through the same typed seam. *)

let max_frame_bytes = 64 * 1024 * 1024

let io_error ~op ~path fn e = Error.of_unix ~op ~path ~fn ~arg:path e

(* EINTR is a scheduling artifact, not a transport fault: a signal
   landing mid-syscall must never surface as an I/O error or, worse,
   kill an accept loop. Every blocking socket call below retries it. *)
let write_all fd s =
  let n = String.length s in
  let b = Bytes.of_string s in
  let rec go off =
    if off >= n then ()
    else
      match Unix.write fd b off (n - off) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | k -> go (off + k)
  in
  go 0

let rec read_some fd chunk =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_some fd chunk
  | k -> k

let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let k = read_some fd chunk in
    if k = 0 then Buffer.contents buf
    else begin
      Buffer.add_subbytes buf chunk 0 k;
      go ()
    end
  in
  go ()

(* The send/recv vtable the streaming paths (server conns, push-mode
   shipping) thread their socket I/O through — the network counterpart
   of the {!Fsio.t} seam, and where a test injects link faults. *)
type net = {
  net_send : Unix.file_descr -> string -> unit;
  net_recv : Unix.file_descr -> bytes -> int;
}

let default_net = { net_send = write_all; net_recv = read_some }

let listen ~sock =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  match
    let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind srv (Unix.ADDR_UNIX sock);
    Unix.listen srv 64;
    srv
  with
  | exception Unix.Unix_error (e, fn, _) ->
      Error (io_error ~op:Error.Write ~path:sock fn e)
  | srv -> Ok srv

let connect ~sock =
  match
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX sock)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd
  with
  | exception Unix.Unix_error (e, fn, _) ->
      Error (io_error ~op:Error.Read ~path:sock fn e)
  | fd -> Ok fd

module Stream = struct
  (* A growable byte buffer with a consumption offset; [next] compacts
     lazily when the consumed prefix dominates, so a long-lived
     connection's buffer stays proportional to its in-flight data. *)
  type t = {
    mutable buf : Bytes.t;
    mutable len : int;  (** valid bytes in [buf] *)
    mutable off : int;  (** consumed prefix *)
  }

  let create () = { buf = Bytes.create 4096; len = 0; off = 0 }

  let compact t =
    if t.off > 0 then begin
      Bytes.blit t.buf t.off t.buf 0 (t.len - t.off);
      t.len <- t.len - t.off;
      t.off <- 0
    end

  let feed t chunk k =
    if t.len + k > Bytes.length t.buf then begin
      compact t;
      if t.len + k > Bytes.length t.buf then begin
        let cap = max (t.len + k) (2 * Bytes.length t.buf) in
        let b = Bytes.create cap in
        Bytes.blit t.buf 0 b 0 t.len;
        t.buf <- b
      end
    end;
    Bytes.blit chunk 0 t.buf t.len k;
    t.len <- t.len + k

  let pending t = t.len > t.off

  (* [next] would answer without more bytes: a whole frame, or a length
     prefix already out of bounds. *)
  let ready t =
    let avail = t.len - t.off in
    avail >= 8
    &&
    let len = Int32.to_int (Bytes.get_int32_be t.buf t.off) in
    len < 0 || len > max_frame_bytes || avail >= 8 + len

  let next t =
    let avail = t.len - t.off in
    if avail < 8 then `Awaiting
    else
      let len = Int32.to_int (Bytes.get_int32_be t.buf t.off) in
      if len < 0 || len > max_frame_bytes then
        `Corrupt (Fmt.str "frame length %d out of bounds" len)
      else if avail < 8 + len then `Awaiting
      else
        let payload = Bytes.sub_string t.buf (t.off + 8) len in
        if
          not
            (Int32.equal (Crc32.digest payload)
               (Bytes.get_int32_be t.buf (t.off + 4)))
        then `Corrupt "frame failed its checksum"
        else begin
          t.off <- t.off + 8 + len;
          if t.off = t.len then begin
            t.off <- 0;
            t.len <- 0
          end
          else if t.off > Bytes.length t.buf / 2 then compact t;
          `Frame payload
        end
end

let oneshot_exchange ~sock payload =
  match
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_UNIX sock);
        write_all fd (Journal.frame payload);
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        read_all fd)
  with
  | exception Unix.Unix_error (e, fn, _) ->
      Error (io_error ~op:Error.Read ~path:sock fn e)
  | raw -> (
      match Journal.decode_frames raw with
      | frames, _clean, 0 -> Ok frames
      | _, _, _ ->
          (* Truncated or mangled response: a transient transport fault
             the caller's retry discipline absorbs. *)
          Error
            (Error.io ~op:Error.Read ~path:sock ~transient:true
               "netio: torn response"))
