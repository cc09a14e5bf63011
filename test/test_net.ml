(* Seeded network fault injection for the socket tests: wrap a
   Penguin.Netio.net so that each guarded operation draws from a keyed
   48-bit LCG. The fault pattern is a pure function of (seed, operation
   sequence), so a chaos run replays exactly. *)
module N = Penguin.Netio

type kind =
  | Drop  (** sent bytes vanish / received bytes are discarded *)
  | Delay of float  (** the operation completes after [s] seconds *)
  | Duplicate  (** the chunk is delivered twice *)
  | Truncate
      (** a strict prefix crosses, then the link is severed — the
          network's torn write *)
  | Sever  (** [ECONNRESET], and the link stays dead afterwards *)

type dir = [ `Send | `Recv ]

(* The keyed 48-bit LCG of the backoff jitter (Penguin.Resilience),
   advanced as a stream: one draw per guarded operation. *)
type rng = { mutable s : int }

let rng_create seed =
  { s = (seed * 0x9E3779B9 lxor 0x5DEECE66D) land 0xFFFFFFFFFFFF }

let draw r =
  r.s <- ((r.s * 25214903917) + 11) land 0xFFFFFFFFFFFF;
  float_of_int (r.s lsr 16) /. 4294967296.

(* A second independent draw for cut positions. *)
let draw_int r n =
  if n <= 0 then 0 else int_of_float (draw r *. float_of_int n)

(* Guard the given directions (default both) of one link: each guarded
   call fires with probability [rate]. An injected net models one link:
   once severed (by [Sever] or [Truncate]) it stays severed, like a cut
   cable, and both directions fail from then on. *)
let inject ~seed ~rate ~kind ?(dirs = [ `Send; `Recv ]) (net : N.net) : N.net =
  let r = rng_create seed in
  let severed = ref false in
  let replay = ref "" in
  let fires () = rate > 0. && draw r < rate in
  let guarded d = List.mem d dirs in
  let cut fn =
    severed := true;
    raise (Unix.Unix_error (Unix.ECONNRESET, fn, "injected sever"))
  in
  let check fn =
    if !severed then
      raise (Unix.Unix_error (Unix.ECONNRESET, fn, "injected sever"))
  in
  {
    N.net_send =
      (fun fd s ->
        check "send";
        if guarded `Send && fires () then
          match kind with
          | Drop -> () (* the bytes vanish; the sender believes they landed *)
          | Delay d ->
              Unix.sleepf d;
              net.net_send fd s
          | Duplicate ->
              net.net_send fd s;
              net.net_send fd s
          | Truncate ->
              let k = draw_int r (String.length s) in
              (try net.net_send fd (String.sub s 0 k)
               with Unix.Unix_error _ -> ());
              cut "send"
          | Sever -> cut "send"
        else net.net_send fd s);
    net_recv =
      (fun fd buf ->
        check "recv";
        if !replay <> "" then begin
          (* A duplicated chunk awaiting redelivery. *)
          let s = !replay in
          let k = min (String.length s) (Bytes.length buf) in
          Bytes.blit_string s 0 buf 0 k;
          replay := String.sub s k (String.length s - k);
          k
        end
        else if guarded `Recv && fires () then
          match kind with
          | Drop ->
              (* The peer's bytes are lost on the wire: consume and
                 discard them, then report "nothing arrived". A drop
                 mid-frame leaves the stream decoder on garbage — the
                 checksum catches it downstream. *)
              let (_ : int) = net.net_recv fd buf in
              raise (Unix.Unix_error (Unix.EAGAIN, "recv", "injected drop"))
          | Delay d ->
              Unix.sleepf d;
              net.net_recv fd buf
          | Duplicate ->
              let k = net.net_recv fd buf in
              if k > 0 then replay := Bytes.sub_string buf 0 k;
              k
          | Truncate ->
              let k = net.net_recv fd buf in
              let c = draw_int r k in
              severed := true;
              if c = 0 then
                raise (Unix.Unix_error (Unix.ECONNRESET, "recv", "injected sever"))
              else c
          | Sever -> cut "recv"
        else net.net_recv fd buf);
  }
