open Relational
open Structural
open Viewobject

type t = {
  graph : Schema_graph.t;
  db : Database.t;
  objects : (string * Definition.t) list;
  translators : (string * Vo_core.Translator_spec.t) list;
  log : Commit_log.t;
}

let ( let* ) = Result.bind

let create graph =
  {
    graph;
    db = Schema_graph.create_database graph;
    objects = [];
    translators = [];
    log = Commit_log.empty;
  }

let version ws = Commit_log.version ws.log

let with_db ws db =
  (* A wholesale swap has no delta: sessions begun earlier must rebase. *)
  { ws with db; log = Commit_log.barrier ws.log "database swapped" }

let run_sql ws script =
  let* db, answers = Sql.run_script ws.db script in
  let log =
    if db == ws.db then ws.log else Commit_log.barrier ws.log "sql script"
  in
  Ok ({ ws with db; log }, answers)

let set_assoc key v l =
  if List.mem_assoc key l then
    List.map (fun (k, old) -> if k = key then k, v else k, old) l
  else l @ [ key, v ]

let install ws vo =
  let name = vo.Definition.name in
  {
    ws with
    objects = set_assoc name vo ws.objects;
    translators =
      set_assoc name
        (Vo_core.Translator_spec.permissive ~object_name:name)
        ws.translators;
  }

let define_object ?(metric = Metric.default) ws ~name ~pivot ~keep =
  let tree = Generate.tree metric ws.graph ~pivot in
  let* vo = Generate.prune ws.graph tree ~name ~keep in
  Ok (install ws vo)

let define_full_object ?(metric = Metric.default) ws ~name ~pivot =
  let* vo = Generate.full metric ws.graph ~name ~pivot in
  Ok (install ws vo)

let find_object ws name =
  match List.assoc_opt name ws.objects with
  | Some vo -> Ok vo
  | None -> Error (Fmt.str "no view object named %s" name)

let set_translator ws name spec =
  { ws with translators = set_assoc name spec ws.translators }

let translator_of ws name =
  match List.assoc_opt name ws.translators with
  | Some spec -> Ok spec
  | None -> Error (Fmt.str "no translator for view object %s" name)

let choose_translator ws name answerer =
  let* vo = find_object ws name in
  let spec, events = Vo_core.Dialog.choose ws.graph vo answerer in
  Ok (set_translator ws name spec, events)

let query ws name condition =
  let* vo = find_object ws name in
  Ok (Vo_query.run ws.db vo condition)

let instances ws name = query ws name Vo_query.C_true

let update ws name request =
  match find_object ws name, translator_of ws name with
  | Error e, _ | _, Error e ->
      ( ws,
        {
          Vo_core.Engine.request_kind = Vo_core.Request.kind_name request;
          ops = [];
          result = Transaction.reject e;
          delta = Delta.empty;
        } )
  | Ok vo, Ok spec -> (
      let outcome = Vo_core.Engine.apply ws.graph ws.db vo spec request in
      match outcome.result with
      | Transaction.Committed db ->
          let log =
            Commit_log.append ws.log ~delta:outcome.delta
              ~kind:(Fmt.str "%s on %s" outcome.request_kind name)
          in
          { ws with db; log }, outcome
      | Transaction.Rolled_back _ -> ws, outcome)

let oql ws name query =
  let* vo = find_object ws name in
  Oql.run ws.db vo query

(* --- materialized view-object cache ---------------------------------- *)

let attach_cache ?mode ws =
  let cache = Cache.create ?mode ws.graph ~db:ws.db in
  List.iter (fun (_, vo) -> Cache.register cache vo) ws.objects;
  Cache.set_position cache (version ws);
  cache

let sync_cache ws cache =
  if Cache.db cache == ws.db then
    (* Already on this state (nothing committed since, or another sync
       got here first): only the bookkeeping position can lag. *)
    Cache.set_position cache (version ws)
  else begin
    let v = version ws in
    (if Cache.position cache > v then
       (* The cache is ahead of this workspace's history: a fork or a
          rewind; nothing to replay forward, start over. *)
       Cache.invalidate_all cache ~db:ws.db
     else
       (* Catch up over the logged commits since the cache's position,
          composed into one net delta; any barrier in between (database
          swap, raw SQL, truncated history) hides changes, so the cache
          must be rebuilt. A same-version workspace with a different
          database is a fork at equal length — the empty net delta would
          lie, and the composed delta of a diverged branch contradicts
          the cached old images; [Cache.apply_delta] invalidates on that
          contradiction. *)
       let rec net acc = function
         | [] -> Some acc
         | { Commit_log.change = Commit_log.Delta d; _ } :: rest ->
             net (Delta.compose acc d) rest
         | { Commit_log.change = Commit_log.Barrier _; _ } :: _ -> None
       in
       match net Delta.empty (Commit_log.entries_since ws.log (Cache.position cache)) with
       | Some d when not (Delta.is_empty d) -> Cache.apply_delta cache ~post:ws.db d
       | Some _ | None -> Cache.invalidate_all cache ~db:ws.db);
    Cache.set_position cache v
  end

let check_consistency ws =
  Vo_core.Global_validation.check_consistency ws.graph ws.db
