type t = {
  read : string -> (string option, Error.t) result;
  read_from :
    path:string -> off:int -> len:int option -> (string option, Error.t) result;
  write : path:string -> append:bool -> string -> (unit, Error.t) result;
  sync : string -> (unit, Error.t) result;
  rename : src:string -> dst:string -> (unit, Error.t) result;
  remove : string -> (unit, Error.t) result;
}

let wrap ~op ~path f =
  try Ok (f ()) with
  | Unix.Unix_error (e, fn, arg) -> Error (Error.of_unix ~op ~path ~fn ~arg e)
  | Sys_error e -> Error (Error.io ~op ~path e)

let read_from_default ~path ~off ~len =
  if not (Sys.file_exists path) then Ok None
  else
    wrap ~op:Error.Read ~path (fun () ->
        let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let size = (Unix.fstat fd).Unix.st_size in
            if off >= size then Some ""
            else begin
              let want =
                let avail = size - off in
                match len with None -> avail | Some l -> min l avail
              in
              ignore (Unix.lseek fd off Unix.SEEK_SET);
              let buf = Bytes.create want in
              let got = ref 0 in
              let eof = ref false in
              while (not !eof) && !got < want do
                let n = Unix.read fd buf !got (want - !got) in
                if n = 0 then eof := true else got := !got + n
              done;
              (* [buf] is not used again: a full read needs no copy. *)
              Some
                (if !got = want then Bytes.unsafe_to_string buf
                 else Bytes.sub_string buf 0 !got)
            end))

let write_default ~path ~append content =
  wrap ~op:Error.Write ~path (fun () ->
      let flags =
        Unix.O_WRONLY :: Unix.O_CREAT
        :: (if append then [ Unix.O_APPEND ] else [ Unix.O_TRUNC ])
      in
      let fd = Unix.openfile path flags 0o644 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let b = Bytes.unsafe_of_string content in
          let n = Bytes.length b in
          let written = ref 0 in
          while !written < n do
            written := !written + Unix.write fd b !written (n - !written)
          done))

let sync_default path =
  wrap ~op:Error.Sync ~path (fun () ->
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* Some filesystems refuse fsync on a directory fd (EINVAL):
             there is nothing more to make durable there. Any other
             failure, EIO above all, is one. *)
          try Unix.fsync fd
          with Unix.Unix_error (Unix.EINVAL, _, _)
          when (Unix.fstat fd).Unix.st_kind = Unix.S_DIR ->
            ()))

let rename_default ~src ~dst =
  wrap ~op:Error.Rename ~path:dst (fun () -> Sys.rename src dst)

let remove_default path =
  wrap ~op:Error.Remove ~path (fun () -> Sys.remove path)

let default =
  {
    read = (fun path -> read_from_default ~path ~off:0 ~len:None);
    read_from = read_from_default;
    write = write_default;
    sync = sync_default;
    rename = rename_default;
    remove = remove_default;
  }

let ( let* ) = Result.bind

(* Staging names must be unique per call: two concurrent writers of the
   same target sharing one tmp file can each publish the other's
   content while believing their own is on disk. *)
let tmp_seq = ref 0

let atomic_write io ~path content =
  incr tmp_seq;
  let tmp = Fmt.str "%s.tmp.%d.%d" path (Unix.getpid ()) !tmp_seq in
  let* () = io.write ~path:tmp ~append:false content in
  let* () = io.sync tmp in
  let* () = io.rename ~src:tmp ~dst:path in
  (* The rename is durable only once its directory is: until then a
     crash may bring the old content back. *)
  io.sync (Filename.dirname path)

let lock_path path = path ^ ".lock"

(* Deadline-bounded acquisition polls a non-blocking lock: there is no
   portable "lockf with timeout", and poll periods here (1..50 ms,
   doubling) are dwarfed by the fsyncs the lock guards. *)
let acquire ?deadline_ns ?(clock = Resilience.Clock.real) ~path fd =
  match deadline_ns with
  | None -> wrap ~op:Error.Lock ~path (fun () -> Unix.lockf fd Unix.F_LOCK 0)
  | Some deadline ->
      let rec poll pause_ns =
        match
          try
            Unix.lockf fd Unix.F_TLOCK 0;
            `Locked
          with
          | Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES | Unix.EWOULDBLOCK), _, _)
            ->
              `Held
          | Unix.Unix_error (e, fn, arg) ->
              `Err (Error.of_unix ~op:Error.Lock ~path ~fn ~arg e)
        with
        | `Locked -> Ok ()
        | `Err e -> Error e
        | `Held ->
            let now = clock.Resilience.Clock.now_ns () in
            if now >= deadline then
              Error
                (Error.Deadline_exceeded
                   (Fmt.str "lock %s: held by another process past the deadline"
                      path))
            else begin
              clock.Resilience.Clock.sleep_ns
                (Float.min pause_ns (deadline -. now));
              poll (Float.min (pause_ns *. 2.) 5e7)
            end
      in
      poll 1e6

let with_lock ?deadline_ns ?clock path f =
  let lp = lock_path path in
  let* fd =
    wrap ~op:Error.Lock ~path:lp (fun () ->
        Unix.openfile lp [ Unix.O_CREAT; Unix.O_RDWR; Unix.O_CLOEXEC ] 0o644)
  in
  Fun.protect
    (* Closing the fd releases the lock (and the OS releases it if the
       process dies inside [f]). *)
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let* () = acquire ?deadline_ns ?clock ~path:lp fd in
      f ())
