open Relational

let src = Logs.Src.create "penguin.session" ~doc:"optimistic serving sessions"

module Log = (val Logs.src_log src : Logs.LOG)

module M = Obs.Metrics

let m_queue_depth = M.gauge "session.queue_depth"
let m_queued = M.counter "session.queued"
let m_commits = M.counter "session.commits"
let m_commit_ns = M.histogram "session.commit_ns"
let m_rebase_ns = M.histogram "session.rebase_ns"
let m_rebases = M.counter "session.rebases"
let m_rebase_conflict = M.counter "session.rebase_conflict"
let m_rebase_unknown = M.counter "session.rebase_unknown_history"
let m_noop_drops = M.counter "session.noop_drops"
let m_deadline_hits = M.counter "session.deadline_exceeded"

type retry = Workspace.t -> (Vo_core.Request.t option, Error.t) result

type entry = {
  name : string;
  source : string Lazy.t;
      (** what the update came from, for refusals; lazy, since formatting
          it for every queued update costs the server's commit path *)
  retry : retry;
  st : Vo_core.Engine.staged;
}

type t = {
  snapshot : Workspace.t;
  base_version : int;
  (* Newest first: [queue] conses in O(1) and [commit] materializes the
     arrival order once ([entries]) — the old oldest-first list appended
     per queue, O(n^2) across a session. *)
  rev_entries : entry list;
  count : int;
}

let begin_ ws =
  {
    snapshot = ws;
    base_version = Workspace.version ws;
    rev_entries = [];
    count = 0;
  }

let base_version s = s.base_version
let pending s = s.count
let entries s = List.rev s.rev_entries
let staged s = List.rev_map (fun e -> e.st) s.rev_entries

let stage s name ~source retry request =
  let ws = s.snapshot in
  match Workspace.find_object ws name, Workspace.translator_of ws name with
  | Error e, _ | _, Error e -> Error (Error.invalid e)
  | Ok vo, Ok spec -> (
      match
        Vo_core.Engine.stage ~base_version:s.base_version ws.Workspace.graph
          ws.Workspace.db vo spec request
      with
      | Error e -> Error (Error.invalid (Vo_core.Engine.stage_error_reason e))
      | Ok st ->
          Log.debug (fun m ->
              m "session@v%d: queued %s on %s (%d staged)" s.base_version
                st.Vo_core.Engine.request_kind name (s.count + 1));
          M.Counter.incr m_queued;
          M.Gauge.set m_queue_depth (Float.of_int (s.count + 1));
          Ok
            {
              s with
              rev_entries = { name; source; retry; st } :: s.rev_entries;
              count = s.count + 1;
            })

let queue s name ?retry request =
  let retry =
    match retry with Some f -> f | None -> fun _ -> Ok (Some request)
  in
  let source =
    lazy (Fmt.str "%s on %s" (Vo_core.Request.kind_name request) name)
  in
  stage s name ~source retry request

let queue_stmt s name stmt =
  let ws = s.snapshot in
  match
    Workspace.find_object ws name, Upql.requests ws ~object_name:name stmt
  with
  | Error m, _ | _, Error m -> Error (Error.invalid m)
  | Ok vo, Ok reqs ->
      (* A request is identified by the pivot key of the instance it edits. *)
      let attrs = Viewobject.Definition.key_attributes ws.Workspace.graph vo in
      let key
          Vo_core.Request.(Insert i | Delete i | Replace { old_instance = i; _ })
          =
        List.map (Tuple.get i.Viewobject.Instance.tuple) attrs
      in
      let edits k r = List.equal Value.equal k (key r) in
      let keys = List.map key reqs in
      (* Re-derive the instance with pivot key [k] from the statement
         against a later state, so a rebase never replays a stale
         instance image. *)
      let retry k ws =
        match Upql.requests ws ~object_name:name stmt with
        | Error m -> Error (Error.invalid m)
        | Ok l
          when List.for_all (fun r -> List.exists (fun k -> edits k r) keys) l
          ->
            (* [None]: the edit already holds, or the instance no longer
               matches *)
            Ok (List.find_opt (edits k) l)
        | Ok _ ->
            Error (Error.conflict "it now matches instances it did not match")
      in
      let source = lazy (Fmt.str "%S on %s" stmt name) in
      let rec add s = function
        | [] -> Ok s
        | req :: rest -> (
            match stage s name ~source (retry (key req)) req with
            | Ok s -> add s rest
            | Error _ as e -> e)
      in
      add s reqs

type divergence =
  | Clean
  | Conflicting of Delta.conflict list
  | Unknown_history

let divergence ws s =
  match Commit_log.footprint_since ws.Workspace.log s.base_version with
  | None -> Unknown_history
  | Some fp -> (
      match
        List.concat_map
          (fun e -> Delta.conflicts_footprint e.st.Vo_core.Engine.reads fp)
          s.rev_entries
      with
      | [] -> Clean
      | cs -> Conflicting cs)

(* Re-derive [todo] and stage it against [ws]; entries whose retry
   reports a no-op are dropped. *)
let restage ws todo =
  List.fold_left
    (fun acc e ->
      Result.bind acc (fun s' ->
          Result.map_error
            (fun err -> Error.with_context (Lazy.force e.source) err)
            (match e.retry ws with
            | Error _ as err -> err
            | Ok None ->
                Log.debug (fun m ->
                    m "session rebase: %s update on %s became a no-op, dropping"
                      e.st.Vo_core.Engine.request_kind e.name);
                M.Counter.incr m_noop_drops;
                Ok s'
            | Ok (Some req) -> stage s' e.name ~source:e.source e.retry req)))
    (Ok (begin_ ws))
    todo
  |> Result.map entries

(* Bring a session onto [ws]. A clean one keeps its staged updates
   (non-overlapping deltas commute); a diverged one rebases, re-deriving
   each update through its retry, and an update that cannot be
   re-derived is a concurrency casualty: [Conflict], retryable from a
   fresh session. *)
let onto ws s =
  let rebase cause =
    M.Counter.incr m_rebases;
    Obs.Trace.with_span m_rebase_ns ~tags:[ "cause", cause ] @@ fun () ->
    match restage ws (entries s) with
    | Ok todo -> Ok (todo, true)
    | Error e ->
        Error
          (Error.conflict
             (Fmt.str "rebase against v%d: %s; begin a fresh session and retry"
                (Workspace.version ws) (Error.to_string e)))
  in
  match divergence ws s with
  | Clean -> Ok (entries s, false)
  | Conflicting cs ->
      Log.info (fun m ->
          m "session@v%d: %d conflict(s) with v%d, rebasing: %a" s.base_version
            (List.length cs) (Workspace.version ws)
            Fmt.(list ~sep:semi Delta.pp_conflict)
            cs);
      M.Counter.incr m_rebase_conflict;
      rebase "conflict"
  | Unknown_history ->
      (* A barrier (database swap, raw SQL) hides the concurrent deltas:
         conflict checking is impossible, so rebase unconditionally. *)
      Log.info (fun m ->
          m "session@v%d: history unknown since snapshot, rebasing"
            s.base_version);
      M.Counter.incr m_rebase_unknown;
      rebase "barrier"

type outcome = { versions : int list; rebased : bool }

(* A session on its way through a window: its position in the window,
   the updates it still has to commit (staged against the window's
   current state), and the versions it has committed, newest first. *)
type slot = { at : int; todo : entry list; done_ : int list; rebased : bool }

(* Why a round stopped: sessions to eject (the rest is re-run without
   them, so an ejected session leaves no trace), or a failure that
   names no session and fails the whole window. *)
type stop = Eject of (int * Error.t) list | Fail_all of Error.t

let window_conflict =
  Error.conflict
    "commit conflicts with an earlier commit in the same flush window; begin \
     a fresh session and retry"

(* The sessions with an update whose delta collides with an update of an
   earlier, surviving session. A session's collisions with itself are
   not conflicts: its own edits commit in arrival order. *)
let collisions slots =
  let footprints sl =
    List.map (fun e -> Delta.footprint e.st.Vo_core.Engine.delta) sl.todo
  in
  let _, losers =
    List.fold_left
      (fun (taken, losers) sl ->
        let fps = footprints sl in
        if List.exists (fun fp -> Delta.conflicts_footprint fp taken <> []) fps
        then taken, (sl.at, window_conflict) :: losers
        else List.fold_left Delta.footprint_union taken fps, losers)
      (Delta.empty_footprint, []) slots
  in
  losers

(* Name the session owning the group member a rejection points at;
   [parts] pairs each session with its members of the group (in group
   order) and the rest of its updates. *)
let culprit rejection parts =
  let reason = Vo_core.Engine.group_rejection_reason rejection in
  let index =
    match rejection with
    | Vo_core.Engine.Group_op_failed { index; _ } -> Some index
    | Vo_core.Engine.Group_validation_failed { culprit; _ } -> culprit
    | Vo_core.Engine.Group_conflict { right; _ } -> Some right
  in
  let rec owner i k = function
    | [] -> None
    | (sl, (now, _)) :: rest ->
        let k' = k + List.length now in
        if i < k' then Some sl.at else owner i k' rest
  in
  match Option.bind index (fun i -> owner i 0 parts) with
  | Some at ->
      Eject
        [ at, Error.invalid (Fmt.str "rejected by the window's validation: %s" reason) ]
  | None -> Fail_all (Error.invalid reason)

(* Session [sl]'s later updates failed to re-derive after a round. If
   no other session has committed in this window, the rounds committed
   only [sl]'s own earlier updates, so the failure is deterministic: a
   fresh session on the same state fails the same way, and [Invalid]
   stops a client retrying it. Otherwise the other sessions' commits may
   be the cause: [Conflict]. *)
let rederive_failure slots sl e =
  if List.for_all (fun o -> o.at = sl.at || o.done_ = []) slots then
    Error.invalid (Error.to_string e)
  else
    Error.conflict
      (Fmt.str
         "%s, after other commits in the same flush window; begin a fresh \
          session and retry"
         (Error.to_string e))

(* Append one commit-log entry per update; the versions they took are
   consed onto [done_]. *)
let record (log, done_) e =
  let log =
    Commit_log.append log ~delta:e.st.Vo_core.Engine.delta
      ~kind:(Fmt.str "%s on %s" e.st.Vo_core.Engine.request_kind e.name)
  in
  log, Commit_log.version log :: done_

(* Commit rounds over [cur]: each plans the sessions' pending updates,
   commits the first conflict-free group through one [commit_group],
   and re-derives whatever the group left out (a session's later edits
   of a tuple it already edited) against the result. A window of clean,
   conflict-free sessions is one round: one plan, one commit_group. *)
let rec rounds cur slots =
  let staged = List.concat_map (fun sl -> List.map (fun e -> e.st) sl.todo) slots in
  match Vo_core.Engine.plan_groups staged with
  | [] -> Ok (cur, slots)
  | group :: later -> (
      let whole = later = [] in
      match if whole then [] else collisions slots with
      | _ :: _ as losers -> Error (Eject losers)
      | [] -> (
          let parts =
            List.map
              (fun sl ->
                if whole then sl, (sl.todo, [])
                else sl, List.partition (fun e -> List.memq e.st group) sl.todo)
              slots
          in
          match
            Vo_core.Engine.commit_group cur.Workspace.graph cur.Workspace.db group
          with
          | Error rejection ->
              Error (culprit rejection parts)
          | Ok (db, _merged) -> (
              let log, slots =
                List.fold_left_map
                  (fun log (sl, (now, todo)) ->
                    let log, done_ = List.fold_left record (log, sl.done_) now in
                    log, { sl with todo; done_ })
                  cur.Workspace.log parts
              in
              let cur = { cur with Workspace.db; log } in
              if whole then Ok (cur, slots)
              else
                let restaged, failed =
                  List.partition_map
                    (fun sl ->
                      match sl.todo with
                      | [] -> Left sl
                      | todo -> (
                          match restage cur todo with
                          | Ok todo -> Left { sl with todo }
                          | Error e ->
                              Right (sl.at, rederive_failure slots sl e)))
                    slots
                in
                match failed with
                | [] -> rounds cur restaged
                | _ -> Error (Eject failed))))

let commit_window ws sessions =
  let verdicts = Array.make (List.length sessions) None in
  let decide at v = verdicts.(at) <- Some v in
  let slots =
    List.mapi (fun at s -> at, onto ws s) sessions
    |> List.filter_map (fun (at, prepared) ->
           match prepared with
           | Ok (todo, rebased) -> Some { at; todo; done_ = []; rebased }
           | Error e ->
               decide at (Error e);
               None)
  in
  let rec run slots =
    match rounds ws slots with
    | Ok (ws', slots) ->
        List.iter
          (fun sl ->
            decide sl.at (Ok { versions = List.rev sl.done_; rebased = sl.rebased }))
          slots;
        ws'
    | Error (Eject ejected) ->
        List.iter (fun (at, e) -> decide at (Error e)) ejected;
        run (List.filter (fun sl -> Option.is_none verdicts.(sl.at)) slots)
    | Error (Fail_all e) ->
        List.iter (fun sl -> decide sl.at (Error e)) slots;
        ws
  in
  let ws' = run slots in
  ws', Array.to_list (Array.map Option.get verdicts)

type commit_stats = {
  version : int;
  attempts : int;
  rebased : bool;
  committed : int;
}

let commit ?deadline_ns ws s =
  if s.rev_entries = [] then
    Ok
      ( ws,
        {
          version = Workspace.version ws;
          attempts = 0;
          rebased = false;
          committed = 0;
        } )
  else
    match deadline_ns with
    | Some d when M.now_ns () > d ->
        M.Counter.incr m_deadline_hits;
        Error
          (Error.Deadline_exceeded
             (Fmt.str
                "session commit: deadline exceeded; staged at v%d, workspace \
                 at v%d"
                s.base_version (Workspace.version ws)))
    | _ -> (
        Obs.Trace.with_span m_commit_ns
          ~tags:[ "queued", string_of_int s.count ]
        @@ fun () ->
        match commit_window ws [ s ] with
        | ws', [ Ok { versions; rebased } ] ->
            let version = Workspace.version ws' in
            let committed = List.length versions in
            let attempts = if rebased then 2 else 1 in
            M.Counter.incr m_commits;
            M.Gauge.set m_queue_depth 0.;
            Obs.Trace.tag "attempts" (string_of_int attempts);
            if rebased then Obs.Trace.tag "rebased" "true";
            Log.info (fun m ->
                m "session@v%d committed %d update(s) as v%d%s" s.base_version
                  committed version
                  (if rebased then " (rebased)" else ""));
            Ok (ws', { version; attempts; rebased; committed })
        | _, verdicts -> Error (Result.get_error (List.hd verdicts)))
