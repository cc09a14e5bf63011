let ( let* ) = Result.bind

module M = Obs.Metrics

let c_requests = M.counter "shipper.requests"
let c_request_errors = M.counter "shipper.request_errors"
let c_push_subscriptions = M.counter "shipper.push.subscriptions"
let c_push_bytes = M.counter "shipper.push.pushed_bytes"
let c_push_acks = M.counter "shipper.push.acks"

(* The pull protocol is one request and one response per connection.
   The client writes a single frame holding a request and shuts down its
   write side; the listener answers with two frames — a status, then the
   raw payload bytes. The frames ({!Replica.request},
   {!Replica.reply}) reuse the journal's length+CRC-32 wire format, so a
   truncated or mangled transport chunk fails the same checksum a torn
   journal tail does.

   [(subscribe OFF)] instead upgrades the connection to a long-lived
   push stream: the listener answers one [(pushing BASE EPOCH)] frame
   and from then on relays raw journal bytes (already valid frames) as
   they land, while the follower sends [(ack V)] frames — the version
   it holds durably — back on the same socket. A rotation does not end
   the stream: the new journal is streamed from its first byte, and its
   header frame is the barrier the follower folds its own journal at.
   An epoch change or a send failure closes the stream: the follower
   falls back to the stateless pull path and resubscribes from its own
   position.

   This half of the file is the listener side of that protocol. Its one
   caller is {!Server}, which owns the sockets and the event loop and
   calls in here for every feed decision. *)

type sub = {
  sub_fd : Unix.file_descr;
  mutable base : int;  (** of the journal being streamed *)
  epoch : int;
  mutable sent : int;  (** bytes of that journal relayed *)
  mutable acked : int;  (** the version the follower holds durably *)
}

let acked s = s.acked

let send ~net fd payloads =
  match
    net.Netio.net_send fd (String.concat "" (List.map Journal.frame payloads))
  with
  | () -> true
  | exception Unix.Unix_error _ -> false

let refused ~net fd m =
  M.Counter.incr c_request_errors;
  let (_ : bool) = send ~net fd [ Replica.reply_payload (Refused m) ] in
  `Close

(* The subscriber streams raw bytes from [off], so [off] must be a real
   frame boundary of the journal we hold — anything else (a deposed
   leader's longer journal, a stale offset from before a rotation) is
   refused in-band with one frame, the connection is closed, and the
   follower resolves it through the pull path. A boundary says nothing
   about which journal the follower's bytes came from — only the
   follower can check the header — so a subscription holds no version
   until the follower acks one. *)
let subscribe ~net feed fd off =
  match feed.Replica.fetch_journal ~off:0 with
  | Error e -> refused ~net fd (Error.to_string e)
  | Ok all ->
      let frames, clean_end, _torn = Journal.decode_frames all in
      if not (off = 0 || off = clean_end || List.mem_assoc off frames) then
        refused ~net fd
          (Fmt.str
             "offset %d is not a frame boundary (journal end %d); catch up \
              through the pull feed"
             off clean_end)
      else
        let base, epoch =
          Option.value (Replica.header_of_bytes all) ~default:(0, 0)
        in
        if not (send ~net fd [ Replica.reply_payload (Pushing (base, epoch)) ])
        then `Close
        else begin
          M.Counter.incr c_push_subscriptions;
          `Subscribed { sub_fd = fd; base; epoch; sent = off; acked = 0 }
        end

let accept ~net feed fd payload =
  M.Counter.incr c_requests;
  let answer result =
    let frames =
      match result with
      | Ok bytes -> [ Replica.reply_payload Ready; bytes ]
      | Error m ->
          M.Counter.incr c_request_errors;
          [ Replica.reply_payload (Refused m); "" ]
    in
    if send ~net fd frames then `Answered else `Close
  in
  let fetched r = Result.map_error Error.to_string r in
  match Replica.request_of_payload payload with
  | Error m -> answer (Error m)
  | Ok (Subscribe off) -> subscribe ~net feed fd off
  | Ok Snapshot -> answer (fetched (feed.Replica.fetch_snapshot ()))
  | Ok Head -> answer (fetched (feed.Replica.fetch_head ()))
  | Ok (Journal_from off) -> answer (fetched (feed.Replica.fetch_journal ~off))

(* Relay every complete new frame to one subscriber. Only the clean
   frame prefix crosses — torn tail bytes would poison the subscriber's
   stream decoder, and they may still be an append in flight. *)
let relay_frames ~net feed s =
  match feed.Replica.fetch_journal ~off:s.sent with
  | Error _ -> false
  | Ok bytes -> (
      let _frames, clean_end, _torn =
        Journal.decode_frames ~off0:s.sent bytes
      in
      let n = clean_end - s.sent in
      n <= 0
      ||
      match net.Netio.net_send s.sub_fd (String.sub bytes 0 n) with
      | exception Unix.Unix_error _ -> false
      | () ->
          s.sent <- clean_end;
          M.Counter.add c_push_bytes n;
          true)

(* The journal header is the stream's validity token. A new base under
   the same epoch is a rotation: the new journal streams
   from byte 0, its header frame first, as the barrier. A new epoch ends the
   stream. *)
let relay ~net feed s =
  match
    Option.bind (Result.to_option (feed.Replica.fetch_head ()))
      Replica.header_of_bytes
  with
  | Some (_, epoch) when epoch <> s.epoch -> false
  | Some (base, _) when base <> s.base ->
      s.base <- base;
      s.sent <- 0;
      relay_frames ~net feed s
  | Some _ | None -> relay_frames ~net feed s

let take_ack s payload =
  match Replica.ack_of_payload payload with
  | None -> `Garbage
  | Some v when v >= s.acked ->
      s.acked <- v;
      M.Counter.incr c_push_acks;
      `Advanced
  | Some _ -> `Stale

(* --- client ------------------------------------------------------------ *)

let exchange ~sock request =
  let* frames =
    Netio.oneshot_exchange ~sock (Replica.request_payload request)
  in
  match frames with
  | [ (_, status); (_, payload) ] -> (
      match Replica.reply_of_payload status with
      | Some Ready -> Ok payload
      | Some (Refused m) ->
          Error (Error.io ~op:Error.Read ~path:sock ~transient:true m)
      | Some (Pushing _) | None ->
          Error (Error.corrupt_record ~path:sock "shipper: bad status frame"))
  | _ ->
      (* Truncated or mangled response: a transient transport fault —
         the replica's refetch discipline retries it. *)
      Error
        (Error.io ~op:Error.Read ~path:sock ~transient:true
           "shipper: torn response")

let feed ~sock =
  {
    Replica.feed_label = "shipper:" ^ sock;
    fetch_snapshot = (fun () -> exchange ~sock Snapshot);
    fetch_journal = (fun ~off -> exchange ~sock (Journal_from off));
    fetch_head = (fun () -> exchange ~sock Head);
  }
