(* The penguin command-line tool.

     penguin figures [ARTIFACT]     reproduce the paper's figures/dialogs
     penguin show FIXTURE           schema, objects and instances of a fixture
     penguin sql FIXTURE STMT       run a SQL-ish statement against a fixture
     penguin dialog FIXTURE OBJECT  run the translator-choice dialog
     penguin dot FIXTURE            Graphviz rendering of the structural schema
     penguin session begin|queue|commit
                                    snapshot sessions over a saved store

   Fixtures: university | hospital | cad *)

open Cmdliner
open Viewobject

let fixtures =
  [ "university"; "hospital"; "cad" ]

(* CLI misuse is an [Invalid] on the typed error path (printed and
   exited cleanly), never an exception — a user typo must not print a
   backtrace. *)
let workspace_of = function
  | "university" -> Ok (Penguin.University.workspace ())
  | "hospital" -> Ok (Penguin.Hospital.workspace ())
  | "cad" -> Ok (Penguin.Cad.workspace ())
  | f ->
      Error
        (Penguin.Error.invalid
           (Fmt.str "unknown fixture %s (expected: %s)" f
              (String.concat ", " fixtures)))

let or_die = function
  | Ok v -> v
  | Error e ->
      Fmt.epr "error: %s@." (Penguin.Error.to_string e);
      exit 1

let read_file path =
  match Penguin.Fsio.default.Penguin.Fsio.read path with
  | Ok (Some s) -> Ok s
  | Ok None -> Error (Penguin.Error.invalid (Fmt.str "%s: no such file" path))
  | Error e -> Error e

let fixture_arg =
  let doc = "Fixture database: university, hospital or cad." in
  Arg.(required & pos 0 (some (enum (List.map (fun f -> f, f) fixtures))) None
       & info [] ~docv:"FIXTURE" ~doc)

(* --- figures --------------------------------------------------------- *)

let figures only =
  let all = Penguin.Paper.all () in
  let selected =
    match only with
    | None -> all
    | Some n ->
        List.filter
          (fun (label, _) ->
            Relational.Strutil.contains ~sub:(String.lowercase_ascii n)
              (String.lowercase_ascii label))
          all
  in
  if selected = [] then (
    Fmt.epr "no artifact matches %a@." Fmt.(option string) only;
    exit 1);
  List.iter
    (fun (label, text) ->
      Fmt.pr "==================== %s ====================@.%s@.@." label text)
    selected

let figures_cmd =
  let only =
    let doc = "Only print artifacts whose label contains $(docv)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ARTIFACT" ~doc)
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Reproduce the paper's figures and transcripts.")
    Term.(const figures $ only)

(* --- show ------------------------------------------------------------ *)

let show fixture =
  let ws = or_die (workspace_of fixture) in
  Fmt.pr "structural schema:@.%a@.@." Structural.Schema_graph.pp
    ws.Penguin.Workspace.graph;
  List.iter
    (fun (name, vo) ->
      Fmt.pr "view object %s (complexity %d):@.%s@." name
        (Definition.complexity vo)
        (Definition.to_ascii vo);
      Fmt.pr "  island: %s@." (String.concat ", " (Island.island_labels vo));
      (match Island.peninsula_relations ws.Penguin.Workspace.graph vo with
      | [] -> Fmt.pr "  referencing peninsulas: none@."
      | ps -> Fmt.pr "  referencing peninsulas: %s@." (String.concat ", " ps));
      (match Penguin.Workspace.translator_of ws name with
      | Error _ -> ()
      | Ok spec -> (
          match
            Vo_core.Translator_spec.audit ws.Penguin.Workspace.graph vo spec
          with
          | [] -> ()
          | findings ->
              Fmt.pr "  translator audit:@.";
              List.iter (fun f -> Fmt.pr "    - %s@." f) findings));
      (match Penguin.Workspace.instances ws name with
      | Ok instances ->
          Fmt.pr "  %d instance(s):@." (List.length instances);
          List.iter (fun i -> Fmt.pr "%s" (Instance.to_ascii i)) instances
      | Error e -> Fmt.pr "  (instances unavailable: %s)@." e);
      Fmt.pr "@.")
    ws.Penguin.Workspace.objects

let show_cmd =
  Cmd.v
    (Cmd.info "show"
       ~doc:"Print a fixture's schema, view objects, islands and instances.")
    Term.(const show $ fixture_arg)

(* --- sql ------------------------------------------------------------- *)

let sql fixture stmt =
  let ws = or_die (workspace_of fixture) in
  match Penguin.Workspace.run_sql ws stmt with
  | Ok (_, answers) ->
      List.iter (fun a -> Fmt.pr "%a@." Relational.Sql.pp_answer a) answers
  | Error e ->
      Fmt.epr "error: %s@." e;
      exit 1

let sql_cmd =
  let stmt =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"STATEMENT" ~doc:"SQL-ish statement(s), ';'-separated.")
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Run SQL-ish statements against a fixture database.")
    Term.(const sql $ fixture_arg $ stmt)

(* --- oql ------------------------------------------------------------- *)

let oql fixture object_name query json sexp =
  let ws = or_die (workspace_of fixture) in
  match Penguin.Workspace.find_object ws object_name with
  | Error e ->
      Fmt.epr "error: %s@." e;
      exit 1
  | Ok vo -> (
      (* Queries read through the materialized cache: this process's
         first read builds the object's entries (a miss), repeated
         reads — and long-lived callers syncing the cache across
         commits — are served from the store. *)
      let cache = Penguin.Workspace.attach_cache ws in
      match Viewobject.Cache.oql cache object_name query with
      | Error e ->
          Fmt.epr "error: %s@." e;
          exit 1
      | Ok instances ->
          if json then
            Fmt.pr "%s@." (Penguin.Json_export.instances vo instances)
          else if sexp then
            List.iter
              (fun i ->
                Fmt.pr "%s@."
                  (Relational.Sexp.to_string (Penguin.Store.instance_to_sexp i)))
              instances
          else begin
            Fmt.pr "%d instance(s)@." (List.length instances);
            List.iter (fun i -> Fmt.pr "%s" (Instance.to_ascii i)) instances
          end)

let oql_cmd =
  let object_name =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"OBJECT" ~doc:"View-object name (see $(b,show)).")
  in
  let query =
    Arg.(required & pos 2 (some string) None
         & info [] ~docv:"QUERY"
             ~doc:"Condition, e.g. \"level = 'grad' and count(STUDENT#2) < 5\".")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit instances as JSON.")
  in
  let sexp =
    Arg.(value & flag
         & info [ "sexp" ]
             ~doc:"Emit instances as S-expressions (the $(b,insert) input \
                   format).")
  in
  Cmd.v
    (Cmd.info "oql" ~doc:"Query a view object with the declarative language.")
    Term.(const oql $ fixture_arg $ object_name $ query $ json $ sexp)

(* --- dialog ---------------------------------------------------------- *)

let dialog fixture object_name assume_yes =
  let ws = or_die (workspace_of fixture) in
  match Penguin.Workspace.find_object ws object_name with
  | Error e ->
      Fmt.epr "error: %s@." e;
      exit 1
  | Ok vo ->
      let answerer =
        if assume_yes then Vo_core.Dialog.all_yes
        else Vo_core.Dialog.interactive stdin stdout
      in
      let spec, events =
        Vo_core.Dialog.choose ws.Penguin.Workspace.graph vo answerer
      in
      Fmt.pr "@.--- transcript ---@.%s@." (Vo_core.Dialog.transcript events);
      Fmt.pr "@.--- resulting translator ---@.%a@." Vo_core.Translator_spec.pp
        spec;
      match Vo_core.Translator_spec.audit ws.Penguin.Workspace.graph vo spec with
      | [] -> Fmt.pr "@.audit: clean — every allowed update can translate.@."
      | findings ->
          Fmt.pr "@.audit findings:@.";
          List.iter (fun f -> Fmt.pr "  - %s@." f) findings

let dialog_cmd =
  let object_name =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"OBJECT" ~doc:"View-object name (see $(b,show)).")
  in
  let yes =
    Arg.(value & flag
         & info [ "yes"; "y" ] ~doc:"Answer YES to every question (no prompt).")
  in
  Cmd.v
    (Cmd.info "dialog"
       ~doc:"Run the translator-choice dialog for a view object.")
    Term.(const dialog $ fixture_arg $ object_name $ yes)

(* --- insert ------------------------------------------------------------ *)

let insert fixture object_name file =
  let ws = or_die (workspace_of fixture) in
  let content = or_die (read_file file) in
  match Penguin.Store.instance_of_string content with
  | Error e ->
      Fmt.epr "error: %s@." e;
      exit 1
  | Ok instance ->
      let _ws, outcome =
        Penguin.Workspace.update ws object_name (Vo_core.Request.insert instance)
      in
      Fmt.pr "%a@." Vo_core.Engine.pp_outcome outcome;
      (* A rolled-back insertion committed nothing: exit non-zero, as
         [update] does on a refused statement. *)
      match outcome.Vo_core.Engine.result with
      | Relational.Transaction.Committed _ -> ()
      | Relational.Transaction.Rolled_back _ -> exit 1

let insert_cmd =
  let object_name =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"OBJECT" ~doc:"View-object name.")
  in
  let file =
    Arg.(required & pos 2 (some file) None
         & info [] ~docv:"FILE"
             ~doc:"S-expression instance document (see $(b,oql --sexp)).")
  in
  Cmd.v
    (Cmd.info "insert"
       ~doc:"Complete insertion of an instance document through an object.")
    Term.(const insert $ fixture_arg $ object_name $ file)

(* --- schema ------------------------------------------------------------ *)

let schema file pivot dot =
  let content = or_die (read_file file) in
  match Structural.Schema_lang.parse content with
  | Error e ->
      Fmt.epr "error: %s@." e;
      exit 1
  | Ok g ->
      if dot then print_string (Structural.Schema_graph.to_dot g)
      else begin
        Fmt.pr "%a@." Structural.Schema_graph.pp g;
        match pivot with
        | None -> ()
        | Some p ->
            if not (Structural.Schema_graph.mem_relation g p) then begin
              Fmt.epr "error: unknown pivot relation %s@." p;
              exit 1
            end;
            let tree =
              Viewobject.Generate.tree Structural.Metric.default g ~pivot:p
            in
            Fmt.pr "@.expansion tree for pivot %s:@.%s" p
              (Structural.Expansion.to_ascii tree)
      end

let schema_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Schema script (see Schema_lang).")
  in
  let pivot =
    Arg.(value & opt (some string) None
         & info [ "pivot" ] ~docv:"RELATION"
             ~doc:"Also print the expansion tree for this pivot.")
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of text.")
  in
  Cmd.v
    (Cmd.info "schema"
       ~doc:"Parse and validate a textual structural-schema script.")
    Term.(const schema $ file $ pivot $ dot)

(* --- observability ---------------------------------------------------- *)

(* [--trace FILE] on the commands that drive the update pipeline. The
   sink is installed before the command body runs and the channel is
   closed at process exit, so every span the invocation produced is on
   disk when the process ends. *)
let setup_trace trace =
  match trace with
  | None -> ()
  | Some path ->
      let oc =
        try open_out path
        with Sys_error e ->
          Fmt.epr "error: --trace %s: %s@." path e;
          exit 1
      in
      at_exit (fun () -> try close_out oc with Sys_error _ -> ());
      Obs.Trace.set_sink (Some (Obs.Trace.channel_sink oc))

let trace_term =
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write this invocation's trace spans to $(docv), one \
                   span per line (children before parents).")
  in
  Term.(const setup_trace $ trace)

(* --- update ----------------------------------------------------------- *)

let update () fixture object_name stmt =
  let ws = or_die (workspace_of fixture) in
  let refuse e =
    Fmt.epr "error: %s: %s@." (Penguin.Error.kind e) (Penguin.Error.to_string e);
    exit 1
  in
  let sess =
    match
      Penguin.Session.queue_stmt (Penguin.Session.begin_ ws) object_name stmt
    with
    | Ok sess -> sess
    | Error e -> refuse e
  in
  List.iter
    (fun (st : Vo_core.Engine.staged) ->
      Fmt.pr "%s: staged@.ops:@.%a@." st.request_kind Relational.Op.pp_list
        st.ops)
    (Penguin.Session.staged sess);
  match Penguin.Session.commit ws sess with
  | Ok (_, { committed = 0; _ }) -> Fmt.pr "committed 0 update(s)@."
  | Ok (_, { committed; version; _ }) ->
      Fmt.pr "committed %d update(s), up to version %d@." committed version
  | Error e -> refuse e

let update_cmd =
  let object_name =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"OBJECT" ~doc:"View-object name (see $(b,show)).")
  in
  let stmt =
    Arg.(required & pos 2 (some string) None
         & info [] ~docv:"STATEMENT"
             ~doc:"e.g. \"set units = 4 where course_id = 'CS345'\" or \
                   \"delete where level = 'undergrad'\".")
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:"Update through a view object with the textual update language: \
             the statement commits as one transaction or is refused \
             whole.")
    Term.(const update $ trace_term $ fixture_arg $ object_name $ stmt)

(* --- export / import -------------------------------------------------- *)

let export fixture path no_data =
  let ws = or_die (workspace_of fixture) in
  match Penguin.Store.save_file ~include_data:(not no_data) ws path with
  | Ok () -> Fmt.pr "saved %s workspace to %s@." fixture path
  | Error e ->
      Fmt.epr "error: %s@." (Penguin.Error.to_string e);
      exit 1

let export_cmd =
  let path =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"FILE" ~doc:"Destination file.")
  in
  let no_data =
    Arg.(value & flag
         & info [ "no-data" ]
             ~doc:"Save only the definitions (schemas, connections, objects, \
                   translators).")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Save a fixture workspace to a file.")
    Term.(const export $ fixture_arg $ path $ no_data)

let import path =
  match Penguin.Recovery.open_store path with
  | Error e ->
      Fmt.epr "error: %s@." (Penguin.Error.to_string e);
      exit 1
  | Ok (ws, report) ->
      Fmt.pr "loaded workspace: %d relation(s), %d tuple(s), %d object(s) (%a)@."
        (List.length (Structural.Schema_graph.relations ws.Penguin.Workspace.graph))
        (Relational.Database.total_tuples ws.Penguin.Workspace.db)
        (List.length ws.Penguin.Workspace.objects)
        Penguin.Recovery.pp_report report;
      List.iter
        (fun (name, vo) ->
          Fmt.pr "@.view object %s:@.%s" name (Definition.to_ascii vo))
        ws.Penguin.Workspace.objects;
      (match Penguin.Workspace.check_consistency ws with
      | Ok () -> Fmt.pr "@.database is consistent.@."
      | Error e -> Fmt.pr "@.WARNING: %s@." e)

let import_cmd =
  let path =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Workspace file to load.")
  in
  Cmd.v
    (Cmd.info "import" ~doc:"Load and describe a saved workspace.")
    Term.(const import $ path)

(* --- session ---------------------------------------------------------- *)

(* A session is a plain-text file: a small header (the store it was
   begun against, the store version at that moment, the queued update
   statements) and, after a "---" separator, the snapshot workspace in
   the Store document format. The store itself is a snapshot document
   plus a durable commit journal [STORE.journal] of every commit since
   (Penguin.Recovery); commit appends its entries there, so a session
   begun before another commit sees the concurrent deltas themselves
   and rebases only when footprints actually overlap — optimistic
   concurrency across processes, validated against real history.
   Commit serializes against other committers with an exclusive lock on
   [STORE.lock] (Fsio.with_lock) held across the whole reopen → rebase
   → persist sequence; begin and queue only read and take no lock. *)

let write_file path content =
  Penguin.Fsio.(atomic_write default) ~path content

type session_doc = {
  sess_store : string;
  sess_base : int;
  sess_queue : (string * string) list;  (** (object, statement), oldest first *)
  sess_snapshot : string;  (** Store document of the snapshot workspace *)
}

let session_sep = "\n---\n"

let render_session doc =
  let b = Buffer.create 1024 in
  Buffer.add_string b "penguin-session 1\n";
  Buffer.add_string b (Fmt.str "store %s\n" doc.sess_store);
  Buffer.add_string b (Fmt.str "base-version %d\n" doc.sess_base);
  List.iter
    (fun (obj, stmt) -> Buffer.add_string b (Fmt.str "queue %s\t%s\n" obj stmt))
    doc.sess_queue;
  Buffer.add_string b "---\n";
  Buffer.add_string b doc.sess_snapshot;
  Buffer.contents b

let parse_session content =
  let ( let* ) = Result.bind in
  let* header, snapshot =
    let n = String.length content and m = String.length session_sep in
    let rec go i =
      if i + m > n then Error "session file: missing --- separator"
      else if String.sub content i m = session_sep then
        Ok (String.sub content 0 i, String.sub content (i + m) (n - i - m))
      else go (i + 1)
    in
    go 0
  in
  let lines = String.split_on_char '\n' header in
  match lines with
  | magic :: rest when String.trim magic = "penguin-session 1" ->
      List.fold_left
        (fun acc line ->
          let* doc = acc in
          match String.index_opt line ' ' with
          | _ when String.trim line = "" -> Ok doc
          | None -> Error (Fmt.str "session file: bad line %S" line)
          | Some i -> (
              let key = String.sub line 0 i in
              let rest = String.sub line (i + 1) (String.length line - i - 1) in
              match key with
              | "store" -> Ok { doc with sess_store = rest }
              | "base-version" -> (
                  match int_of_string_opt rest with
                  | Some v -> Ok { doc with sess_base = v }
                  | None -> Error "session file: bad base-version")
              | "queue" -> (
                  match String.index_opt rest '\t' with
                  | None -> Error "session file: bad queue line"
                  | Some t ->
                      let obj = String.sub rest 0 t in
                      let stmt =
                        String.sub rest (t + 1) (String.length rest - t - 1)
                      in
                      Ok { doc with sess_queue = doc.sess_queue @ [ obj, stmt ] })
              | _ -> Error (Fmt.str "session file: unknown key %S" key)))
        (Ok { sess_store = ""; sess_base = 0; sess_queue = []; sess_snapshot = snapshot })
        rest
  | _ -> Error "session file: not a penguin-session document"

(* Stage every queued statement of [doc] against [ws], the session's
   begin-time snapshot. *)
let stage_session ws doc =
  List.fold_left
    (fun acc (obj, stmt) ->
      Result.bind acc (fun sess ->
          Result.map_error
            (Penguin.Error.with_context (Fmt.str "staging %S on %s" stmt obj))
            (Penguin.Session.queue_stmt sess obj stmt)))
    (Ok (Penguin.Session.begin_ ws))
    doc.sess_queue

let session_begin store session =
  let ws, report = or_die (Penguin.Recovery.open_store store) in
  let base = Penguin.Workspace.version ws in
  let doc =
    {
      sess_store = store;
      sess_base = base;
      sess_queue = [];
      (* The snapshot document records [base], so re-loading it yields a
         workspace whose log is at the session's base version. *)
      sess_snapshot = Penguin.Store.save ws;
    }
  in
  or_die (write_file session (render_session doc));
  Fmt.pr "began session %s on %s at version %d (%a)@." session store base
    Penguin.Recovery.pp_report report

let load_snapshot doc =
  let ws =
    or_die (Result.map_error Penguin.Error.corrupt (Penguin.Store.load doc.sess_snapshot))
  in
  if Penguin.Workspace.version ws <> doc.sess_base then
    or_die
      (Error
         (Penguin.Error.corrupt
            (Fmt.str
               "session file: snapshot is at v%d but the header says v%d — \
                corrupt session file"
               (Penguin.Workspace.version ws)
               doc.sess_base)));
  ws

let session_queue session obj stmt =
  let doc =
    or_die
      (Result.bind (read_file session) (fun c ->
           Result.map_error Penguin.Error.corrupt (parse_session c)))
  in
  let ws = load_snapshot doc in
  let doc = { doc with sess_queue = doc.sess_queue @ [ obj, stmt ] } in
  let sess = or_die (stage_session ws doc) in
  or_die (write_file session (render_session doc));
  Fmt.pr "queued: %d staged update(s) against snapshot (version %d)@."
    (Penguin.Session.pending sess)
    doc.sess_base

let session_commit () deadline session =
  let doc =
    or_die
      (Result.bind (read_file session) (fun c ->
           Result.map_error Penguin.Error.corrupt (parse_session c)))
  in
  (* The whole reopen → rebase → persist sequence runs under the store's
     exclusive lock: without it, two concurrent commits can both open at
     vN and both journal a vN+1, leaving the store unopenable. or_die
     inside the locked region is safe — process exit releases the lock. *)
  (* [--deadline N] bounds the whole commit — lock wait, rebases, and
     the durable append's retries share one absolute budget instead of
     each hanging independently. 0 disables the bound. *)
  let deadline_ns =
    if deadline <= 0. then None
    else Some (Obs.Metrics.now_ns () +. (deadline *. 1e9))
  in
  or_die @@ Penguin.Fsio.with_lock ?deadline_ns doc.sess_store
  @@ fun () ->
  (* Reconstruct the current store state — snapshot plus replayed
     journal deltas — then stage the session's statements against its
     own begin-time snapshot and let the in-process Session run real
     OCC against the replayed history: concurrent commits whose
     footprints do not overlap the session's commit without a rebase. *)
  let ws_now, report = or_die (Penguin.Recovery.open_store doc.sess_store) in
  let current = Penguin.Workspace.version ws_now in
  if current <> doc.sess_base then
    Fmt.pr "store advanced (version %d -> %d) since begin@." doc.sess_base
      current;
  let sess = or_die (stage_session (load_snapshot doc) doc) in
  let ws', stats =
    or_die (Penguin.Session.commit ?deadline_ns ws_now sess)
  in
  let committed = stats.Penguin.Session.committed in
  let version = stats.Penguin.Session.version in
  let persisted =
    (* Transient disk faults on the append are retried with backoff
       under the same deadline; non-transient ones fail immediately. *)
    or_die
      (Penguin.Resilience.retry ?deadline_ns ~label:"persist" (fun () ->
           (* [expect_epoch] from the open above arms epoch fencing: if a
              follower was promoted since, this commit is refused rather
              than forking the replicated history. *)
           Penguin.Recovery.persist ~store:doc.sess_store ~since:current
             ~expect_epoch:report.Penguin.Recovery.epoch
             ~snapshot_bytes:report.Penguin.Recovery.snapshot_bytes ws'))
  in
  (* The commit is durable (journal fsynced) from here on; everything
     past this point — rotation, session-file removal — must not make it
     look failed, or a re-run would replay updates the store already
     holds. *)
  (match persisted.Penguin.Recovery.rotate_error with
  | None -> ()
  | Some e ->
      Fmt.epr
        "warning: commit is durable, but folding the journal into a fresh \
         snapshot failed (%s); a later commit will retry the rotation@."
        (Penguin.Error.to_string e));
  (try Sys.remove session
   with Sys_error e ->
     Fmt.epr
       "warning: session file %s was committed but could not be removed \
        (%s); remove it manually — committing it again would replay its \
        updates@."
       session e);
  Fmt.pr
    "committed %d update(s) to %s: now at version %d (attempts %d%s%s)@."
    committed doc.sess_store version stats.Penguin.Session.attempts
    (if stats.Penguin.Session.rebased then ", rebased" else "")
    (if persisted.Penguin.Recovery.rotated then ", journal rotated into snapshot"
     else "");
  Ok ()

let session_file_arg p =
  Arg.(required & pos p (some string) None
       & info [] ~docv:"SESSION" ~doc:"Session file.")

let session_begin_cmd =
  let store =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"STORE"
             ~doc:"Saved workspace (see $(b,export)) acting as the shared \
                   store.")
  in
  Cmd.v
    (Cmd.info "begin"
       ~doc:"Snapshot a store into a new session file.")
    Term.(const session_begin $ store $ session_file_arg 1)

let session_queue_cmd =
  let obj =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"OBJECT" ~doc:"View-object name.")
  in
  let stmt =
    Arg.(required & pos 2 (some string) None
         & info [] ~docv:"STATEMENT"
             ~doc:"Update statement (the $(b,update) language), evaluated \
                   against the session snapshot.")
  in
  Cmd.v
    (Cmd.info "queue"
       ~doc:"Queue an update statement in a session (staged, not committed).")
    Term.(const session_queue $ session_file_arg 0 $ obj $ stmt)

let session_commit_cmd =
  let deadline =
    Arg.(value & opt float 30.
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"Overall time budget for the commit: lock acquisition, \
                   OCC rebases and durable-append retries share it; when \
                   it runs out the command fails with a deadline error \
                   instead of hanging. 0 waits forever (the pre-resilience \
                   behaviour).")
  in
  Cmd.v
    (Cmd.info "commit"
       ~doc:"Group-commit a session's staged updates onto the store, \
             rebasing if the store advanced since $(b,begin).")
    Term.(const session_commit $ trace_term $ deadline $ session_file_arg 0)

let session_cmd =
  Cmd.group
    (Cmd.info "session"
       ~doc:"Snapshot sessions with optimistic concurrency over a saved \
             store.")
    [ session_begin_cmd; session_queue_cmd; session_commit_cmd ]

(* --- replica ---------------------------------------------------------- *)

let replica_feed from sock =
  match from, sock with
  | Some store, None -> Penguin.Replica.file_feed store
  | None, Some sock -> Penguin.Shipper.feed ~sock
  | _ ->
      Fmt.epr "error: pass exactly one of --from STORE or --sock SOCK@.";
      exit 1

let from_arg =
  Arg.(value & opt (some string) None
       & info [ "from" ] ~docv:"STORE"
           ~doc:"Tail the leader store's files directly (shared \
                 filesystem).")

let sock_arg =
  Arg.(value & opt (some string) None
       & info [ "sock" ] ~docv:"SOCK"
           ~doc:"Tail the $(b,serve) process listening on this \
                 Unix-domain socket.")

let target_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"TARGET" ~doc:"The follower's own store path.")

let pp_replica r (p : Penguin.Replica.progress) =
  Fmt.pr
    "%s: v%d epoch %d (%d record(s) ingested, %d entr(ies) applied%s%s, \
     lag %d)@."
    (Penguin.Replica.status_label (Penguin.Replica.status r))
    (Penguin.Replica.position r) (Penguin.Replica.epoch r) p.records
    p.applied
    (if p.rotated then ", followed a rotation" else "")
    (if p.resynced then ", resynced from snapshot" else "")
    p.lag_records

let replica_sync () target from sock watch push =
  let feed = replica_feed from sock in
  let r = or_die (Penguin.Replica.create ~feed ~target ()) in
  let once () = pp_replica r (or_die (Penguin.Replica.poll_until_idle r)) in
  if push then begin
    match sock with
    | None ->
        Fmt.epr "error: --push needs --sock SOCK (a push-capable leader)@.";
        exit 1
    | Some sock ->
        (* Catch up first, then stream: the subscription acks every
           durable position back, so a quorum leader counts this
           follower. ^C to stop — everything ingested is durable. *)
        once ();
        Fmt.pr "streaming from %s (^C to stop)@." sock;
        ignore
          (or_die (Penguin.Replica.follow_push r ~sock) : int)
  end
  else begin
    once ();
    match watch with
    | None -> ()
    | Some interval ->
        (* Tail forever: poll, sleep, poll — ^C to stop. The replica's
           own journal makes every caught-up state durable, so killing
           the watch loses nothing. *)
        while true do
          Unix.sleepf interval;
          once ()
        done
  end

let replica_sync_cmd =
  let watch =
    Arg.(value & opt (some float) None
         & info [ "watch" ] ~docv:"SECONDS"
             ~doc:"Keep tailing, polling every $(docv) seconds, instead \
                   of exiting once caught up.")
  in
  let push =
    Arg.(value & flag
         & info [ "push" ]
             ~doc:"Hold a streaming subscription instead of polling: the \
                   leader pushes journal frames as they land and this \
                   follower acks its durable position (what \
                   $(b,serve --sync-replicas) counts). Falls back to the \
                   pull feed and resubscribes on any stream drop. \
                   Requires $(b,--sock).")
  in
  Cmd.v
    (Cmd.info "sync"
       ~doc:"Start (or resume) a follower at $(i,TARGET) and catch it \
             up to the leader; with $(b,--watch) or $(b,--push), keep \
             tailing.")
    Term.(const replica_sync $ trace_term $ target_arg $ from_arg $ sock_arg
          $ watch $ push)

let replica_status target from sock json =
  if json then begin
    (* The durable position alone, read from the follower's own files —
       no feed and no repair, so it is safe to run against a store
       another process is tailing. This is what failover tooling
       compares across candidates before $(b,promote). *)
    let d = or_die (Penguin.Replica.durable_position target) in
    let int n = Obs.Json.Num (float_of_int n) in
    print_endline
      (Obs.Json.to_string
         (Obs.Json.Obj
            [ "target", Obs.Json.Str target;
              "version", int d.Penguin.Replica.d_version;
              "epoch", int d.Penguin.Replica.d_epoch;
              "durable_offset", int d.Penguin.Replica.d_offset ]))
  end
  else begin
    let feed = replica_feed from sock in
    let r = or_die (Penguin.Replica.create ~feed ~target ()) in
    Fmt.pr "%s: v%d epoch %d, leader journal offset %d@."
      (Penguin.Replica.status_label (Penguin.Replica.status r))
      (Penguin.Replica.position r) (Penguin.Replica.epoch r)
      (Penguin.Replica.leader_offset r)
  end

let replica_status_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the follower's last durable position (version, \
                   epoch, journal offset) as JSON, read from its own \
                   files without opening a feed.")
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:"Open the follower at $(i,TARGET) (repairing any torn tail) \
             and print its replication position without polling.")
    Term.(const replica_status $ target_arg $ from_arg $ sock_arg $ json)

let replica_oql () target from sock object_name query =
  let feed = replica_feed from sock in
  let r = or_die (Penguin.Replica.create ~feed ~target ()) in
  pp_replica r (or_die (Penguin.Replica.poll_until_idle r));
  match Penguin.Replica.oql r object_name query with
  | Error e ->
      Fmt.epr "error: %s@." e;
      exit 1
  | Ok instances ->
      Fmt.pr "%d instance(s) at v%d@." (List.length instances)
        (Penguin.Replica.position r);
      List.iter (fun i -> Fmt.pr "%s" (Instance.to_ascii i)) instances

let replica_oql_cmd =
  let object_name =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"OBJECT" ~doc:"View-object name.")
  in
  let query =
    Arg.(required & pos 2 (some string) None
         & info [] ~docv:"QUERY" ~doc:"OQL condition.")
  in
  Cmd.v
    (Cmd.info "oql"
       ~doc:"Catch the follower up and serve a read-only OQL query \
             through its warm cache at the replication position.")
    Term.(const replica_oql $ trace_term $ target_arg $ from_arg $ sock_arg
          $ object_name $ query)

let replica_promote () target peers =
  let ws, epoch = or_die (Penguin.Replica.promote_store ~peers target) in
  Fmt.pr "promoted %s: writable at v%d, epoch %d@." target
    (Penguin.Workspace.version ws)
    epoch

let replica_promote_cmd =
  let target =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TARGET" ~doc:"Follower store to promote.")
  in
  let peers =
    Arg.(value & opt (list string) []
         & info [ "peers" ] ~docv:"STORE,..."
             ~doc:"Other candidates' store paths: promotion refuses with \
                   a typed error if any peer's durable position (epoch, \
                   version, offset) is more advanced — promoting a \
                   lagging follower would drop quorum-acked commits.")
  in
  Cmd.v
    (Cmd.info "promote"
       ~doc:"Promote a follower from its last durable record: repair-open \
             under the store lock, rotate into a fresh snapshot at the \
             next epoch, and come up writable. Deposed leaders persisting \
             with the old epoch are fenced.")
    Term.(const replica_promote $ trace_term $ target $ peers)

let replica_cmd =
  Cmd.group
    (Cmd.info "replica"
       ~doc:"Journal-shipping replication: follower stores tailing a \
             leader's journal, read-only queries at the replication \
             position, crash-proven promotion with epoch fencing.")
    [ replica_sync_cmd; replica_status_cmd; replica_oql_cmd;
      replica_promote_cmd ]

(* --- serve ------------------------------------------------------------ *)

let serve () store sock window interval_ms max_parked sync_replicas
    repl_deadline_ms on_lag =
  let config =
    {
      Penguin.Server.flush_window = window;
      flush_interval_ns = interval_ms *. 1e6;
      max_parked;
      sync_replicas;
      repl_deadline_ns = repl_deadline_ms *. 1e6;
      on_lag;
    }
  in
  Fmt.pr "serving %s on %s (window %d, interval %.1f ms%s)@." store sock
    window interval_ms
    (if sync_replicas = 0 then ""
     else
       Fmt.str ", quorum %d replica(s), on lag %s" sync_replicas
         (match on_lag with
         | Penguin.Server.Degrade -> "degrade"
         | Penguin.Server.Fail -> "fail"));
  let stats = or_die (Penguin.Server.serve ~config ~store ~sock ()) in
  Fmt.pr "served %d request(s), %d commit(s) over %d window(s)@."
    stats.Penguin.Server.requests stats.Penguin.Server.commits
    stats.Penguin.Server.windows

let serve_sock_arg =
  Arg.(required & opt (some string) None
       & info [ "sock" ] ~docv:"SOCK" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let store =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"STORE"
             ~doc:"Saved workspace (see $(b,export) or $(b,client seed)) \
                   acting as the served store.")
  in
  let window =
    Arg.(value & opt int Penguin.Server.default_config.flush_window
         & info [ "window" ] ~docv:"N"
             ~doc:"Parked commits that force a flush; 1 degrades to a \
                   fsync per commit (the group-commit baseline).")
  in
  let interval_ms =
    Arg.(value & opt float 10.
         & info [ "interval-ms" ] ~docv:"MS"
             ~doc:"Age of the oldest parked commit that forces a flush — \
                   the latency bound when requests trickle in.")
  in
  let max_parked =
    Arg.(value & opt int Penguin.Server.default_config.max_parked
         & info [ "max-parked" ] ~docv:"N"
             ~doc:"Admission bound on parked commits; beyond it, commit \
                   requests are shed with a busy error.")
  in
  let sync_replicas =
    Arg.(value & opt int 0
         & info [ "sync-replicas" ] ~docv:"K"
             ~doc:"Park each flushed window's commit acks until $(docv) \
                   push followers (see $(b,replica sync --push)) confirm \
                   it durable; 0 (the default) acks on the local fsync \
                   alone.")
  in
  let repl_deadline_ms =
    Arg.(value & opt float 50.
         & info [ "repl-deadline-ms" ] ~docv:"MS"
             ~doc:"Bound on each window's quorum wait before \
                   $(b,--on-lag) applies.")
  in
  let on_lag =
    Arg.(value
         & opt
             (enum
                [ "degrade", Penguin.Server.Degrade;
                  "fail", Penguin.Server.Fail ])
             Penguin.Server.Degrade
         & info [ "on-lag" ] ~docv:"POLICY"
             ~doc:"What a missed replication deadline does to the parked \
                   acks: $(b,degrade) acks with a \
                   $(b,(warning under_replicated)), $(b,fail) sheds with \
                   a deadline error. Either way lagging followers are \
                   evicted from the quorum set until they catch up.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a store over a Unix-domain socket: concurrent client \
             sessions, conflict-free commits batched into one group \
             commit and one journal fsync per flush window, reads \
             through the materialized view-object cache. With \
             $(b,--sync-replicas), commit acks additionally wait for \
             follower quorum.")
    Term.(const serve $ trace_term $ store $ serve_sock_arg $ window
          $ interval_ms $ max_parked $ sync_replicas
          $ repl_deadline_ms $ on_lag)

(* --- client ----------------------------------------------------------- *)

let with_client sock f =
  let c = or_die (Penguin.Client.connect ~sock) in
  Fun.protect ~finally:(fun () -> Penguin.Client.close c) (fun () -> f c)

let client_ping sock =
  with_client sock @@ fun c ->
  or_die (Penguin.Client.ping c);
  Fmt.pr "pong@."

let client_stats sock =
  with_client sock @@ fun c -> print_endline (or_die (Penguin.Client.stats c))

let client_oql sock object_name query =
  with_client sock @@ fun c ->
  let n, text = or_die (Penguin.Client.oql c ~object_name query) in
  Fmt.pr "%d instance(s)@.%s" n text

let client_shutdown sock =
  with_client sock @@ fun c ->
  or_die (Penguin.Client.shutdown c);
  Fmt.pr "server on %s stopped@." sock

let client_update sock object_name stmt =
  with_client sock @@ fun c ->
  let v = or_die (Penguin.Client.begin_ c) in
  let n = or_die (Penguin.Client.queue c ~object_name stmt) in
  let versions = or_die (Penguin.Client.commit c) in
  Fmt.pr "staged %d update(s) at v%d, committed as version(s)%s@." n v
    (String.concat "" (List.map (Fmt.str " %d") versions))

(* The bench-style serving fixture: the university database plus
   [courses] disjoint course/student/grade triples, so [courses]
   concurrent clients each own a course and their grade edits batch
   into one window without conflicting. *)
let client_seed store courses =
  let ins rel bindings db =
    match Relational.Database.insert db rel (Relational.Tuple.make bindings) with
    | Ok db -> db
    | Error e ->
        Fmt.epr "error: seeding %s: %s@." rel (Relational.Database.error_to_string e);
        exit 1
  in
  let rec add db i =
    if i > courses then db
    else
      let course = Fmt.str "BENCH%03d" i in
      let pid = 2000 + i in
      db
      |> ins "COURSES"
           [ "course_id", Relational.Value.Str course;
             "title", Relational.Value.Str (Fmt.str "Bench %d" i);
             "units", Relational.Value.Int 3; "level", Relational.Value.Str "grad";
             "dept_name", Relational.Value.Str "Computer Science" ]
      |> ins "PEOPLE"
           [ "pid", Relational.Value.Int pid; "name", Relational.Value.Str (Fmt.str "S%d" i);
             "dept_name", Relational.Value.Str "Computer Science" ]
      |> ins "STUDENT"
           [ "pid", Relational.Value.Int pid; "degree_program", Relational.Value.Str "MS CS";
             "year", Relational.Value.Int ((i mod 4) + 1) ]
      |> ins "GRADES"
           [ "course_id", Relational.Value.Str course; "pid", Relational.Value.Int pid;
             "grade", Relational.Value.Str "A" ]
      |> fun db -> add db (i + 1)
  in
  let ws = Penguin.University.workspace () in
  let ws = { ws with Penguin.Workspace.db = add ws.Penguin.Workspace.db 1 } in
  or_die (write_file store (Penguin.Store.save ws));
  Fmt.pr "seeded %s with %d bench course(s)@." store courses

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n -> sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

(* The open-loop load driver and zero-lost/zero-duplicated checker the
   CI smoke runs. Each of [clients] connections owns one seeded course
   (disjoint footprints: every round batches conflict-free); per round
   the driver pipelines begin+queue+commit on every connection, then
   collects the three responses from each. A probe session brackets the
   run: with the server the only writer, every version in (v0, v1] must
   be acked exactly once — fewer acks mean a lost (acked-but-untracked
   or landed-but-unacked) commit, repeated versions a duplicated one.
   The probe commits its empty session at once: an open session pins
   the leader's commit log from its base on. *)
let client_load sock clients rounds report_path =
  let probe = or_die (Penguin.Client.connect ~sock) in
  let v0 = or_die (Penguin.Client.begin_ probe) in
  let (_ : int list) = or_die (Penguin.Client.commit probe) in
  let conns =
    Array.init clients (fun _ -> or_die (Penguin.Client.connect ~sock))
  in
  let acked = ref [] in
  let errors = ref 0 in
  let latencies = ref [] in
  let t_start = Unix.gettimeofday () in
  for r = 1 to rounds do
    let t0 = Unix.gettimeofday () in
    Array.iteri
      (fun j c ->
        or_die (Penguin.Client.send_begin c);
        or_die
          (Penguin.Client.send_queue c ~object_name:"omega"
             (Fmt.str
                "set GRADES[pid = %d] grade = 'R%dC%d' where course_id = \
                 'BENCH%03d'"
                (2000 + j + 1) r j (j + 1)));
        or_die (Penguin.Client.send_commit c))
      conns;
    Array.iter
      (fun c ->
        (match Penguin.Client.recv_begin c with
        | Ok _ -> ()
        | Error _ -> incr errors);
        (match Penguin.Client.recv_queue c with
        | Ok _ -> ()
        | Error _ -> incr errors);
        match Penguin.Client.recv_commit c with
        | Ok versions ->
            acked := versions @ !acked;
            latencies := (Unix.gettimeofday () -. t0) :: !latencies
        | Error _ -> incr errors)
      conns;
  done;
  let elapsed = Unix.gettimeofday () -. t_start in
  let v1 = or_die (Penguin.Client.begin_ probe) in
  let server_stats = or_die (Penguin.Client.stats probe) in
  Array.iter Penguin.Client.close conns;
  Penguin.Client.close probe;
  let n_acked = List.length !acked in
  let distinct = List.sort_uniq compare !acked in
  let duplicated = n_acked - List.length distinct in
  let out_of_range = List.filter (fun v -> v <= v0 || v > v1) distinct in
  let lost = v1 - v0 - List.length distinct in
  let lat = Array.of_list !latencies in
  Array.sort compare lat;
  let p50 = percentile lat 0.50 and p99 = percentile lat 0.99 in
  let server_p99_ms =
    let ( let* ) = Option.bind in
    match
      let* json = Result.to_option (Obs.Json.parse server_stats) in
      let* hists = Obs.Json.member "histograms" json in
      let* commit = Obs.Json.member "server.commit_ns" hists in
      Option.bind (Obs.Json.member "p99_ns" commit) Obs.Json.to_float
    with
    | Some ns -> ns /. 1e6
    | None -> -1.
  in
  let report =
    Fmt.str
      "{\"clients\": %d, \"rounds\": %d, \"acked\": %d, \"lost\": %d, \
       \"duplicated\": %d, \"out_of_range\": %d, \"errors\": %d, \
       \"versions\": [%d, %d], \"elapsed_s\": %.3f, \"commits_per_sec\": \
       %.1f, \"client_p50_ms\": %.3f, \"client_p99_ms\": %.3f, \
       \"server_commit_p99_ms\": %.3f}"
      clients rounds n_acked lost duplicated
      (List.length out_of_range)
      !errors v0 v1 elapsed
      (float_of_int n_acked /. Float.max 1e-9 elapsed)
      (p50 *. 1e3) (p99 *. 1e3) server_p99_ms
  in
  (match report_path with
  | None -> ()
  | Some path -> or_die (write_file path report));
  Fmt.pr "%s@." report;
  if lost <> 0 || duplicated <> 0 || out_of_range <> [] then begin
    Fmt.epr
      "error: commit accounting is off — %d lost, %d duplicated, %d out of \
       range@."
      lost duplicated
      (List.length out_of_range);
    exit 1
  end

let client_ping_cmd =
  Cmd.v
    (Cmd.info "ping" ~doc:"Round-trip a ping through a serving socket.")
    Term.(const client_ping $ serve_sock_arg)

let client_stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Print the server's metrics registry as JSON (counters, \
             gauges, latency histograms with percentiles).")
    Term.(const client_stats $ serve_sock_arg)

let client_oql_cmd =
  let object_name =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"OBJECT" ~doc:"View-object name.")
  in
  let query =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"QUERY" ~doc:"OQL condition.")
  in
  Cmd.v
    (Cmd.info "oql"
       ~doc:"Query a view object through the server's materialized cache.")
    Term.(const client_oql $ serve_sock_arg $ object_name $ query)

let client_update_cmd =
  let object_name =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"OBJECT" ~doc:"View-object name.")
  in
  let stmt =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"STATEMENT" ~doc:"Update-language statement.")
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:"Begin a session on the server, queue one update statement \
             and commit it through the current flush window.")
    Term.(const client_update $ serve_sock_arg $ object_name $ stmt)

let client_seed_cmd =
  let store =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"STORE" ~doc:"Store file to write.")
  in
  let courses =
    Arg.(value & opt int 256
         & info [ "courses" ] ~docv:"N"
             ~doc:"Disjoint bench courses to add — one per concurrent \
                   load client.")
  in
  Cmd.v
    (Cmd.info "seed"
       ~doc:"Write a store seeded for the load driver: the university \
             fixture plus N disjoint courses, one per client.")
    Term.(const client_seed $ store $ courses)

let client_load_cmd =
  let clients =
    Arg.(value & opt int 16
         & info [ "clients" ] ~docv:"N" ~doc:"Concurrent connections.")
  in
  let rounds =
    Arg.(value & opt int 10
         & info [ "rounds" ] ~docv:"N"
             ~doc:"Commit rounds; each round pipelines one commit per \
                   connection.")
  in
  let report =
    Arg.(value & opt (some string) None
         & info [ "report" ] ~docv:"FILE"
             ~doc:"Also write the JSON report here.")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Drive N concurrent commit streams against a server (seeded \
             with $(b,client seed)) and verify the ack accounting: every \
             committed version acked exactly once, none lost, none \
             duplicated. Prints a JSON report with throughput and p99; \
             exits non-zero on any accounting anomaly.")
    Term.(const client_load $ serve_sock_arg $ clients $ rounds $ report)

let client_shutdown_cmd =
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:"Flush the server's window and stop it cleanly.")
    Term.(const client_shutdown $ serve_sock_arg)

let client_cmd =
  Cmd.group
    (Cmd.info "client"
       ~doc:"Clients of $(b,penguin serve): one-shot requests, a seeding \
             helper and the concurrent load driver the CI smoke runs.")
    [ client_ping_cmd; client_seed_cmd; client_load_cmd; client_update_cmd;
      client_oql_cmd; client_stats_cmd; client_shutdown_cmd ]

(* --- dot ------------------------------------------------------------- *)

let dot fixture =
  let ws = or_die (workspace_of fixture) in
  print_string (Structural.Schema_graph.to_dot ws.Penguin.Workspace.graph)

let dot_cmd =
  Cmd.v
    (Cmd.info "dot" ~doc:"Print the structural schema in Graphviz format.")
    Term.(const dot $ fixture_arg)

let main_cmd =
  Cmd.group
    (Cmd.info "penguin" ~version:"1.0.0"
       ~doc:
         "Object-based views over relational databases, with update \
          translation (Barsalou, Keller, Siambela & Wiederhold, SIGMOD '91).")
    [ figures_cmd; show_cmd; sql_cmd; oql_cmd; update_cmd; insert_cmd;
      dialog_cmd; dot_cmd; export_cmd; import_cmd; schema_cmd; session_cmd;
      replica_cmd; serve_cmd; client_cmd ]

let setup_logging () =
  match Option.map String.lowercase_ascii (Sys.getenv_opt "PENGUIN_LOG") with
  | None | Some "" -> ()
  | Some level ->
      let level =
        match level with
        | "debug" -> Some Logs.Debug
        | "info" -> Some Logs.Info
        | "warning" | "warn" -> Some Logs.Warning
        | "error" -> Some Logs.Error
        | _ -> Some Logs.Info
      in
      Logs.set_level level;
      let report src lvl ~over k msgf =
        let k _ = over (); k () in
        msgf @@ fun ?header:_ ?tags:_ fmt ->
        Format.kfprintf k Format.err_formatter
          ("[%s:%s] @[" ^^ fmt ^^ "@]@.")
          (Logs.Src.name src)
          (Logs.level_to_string (Some lvl))
      in
      Logs.set_reporter { Logs.report }

let () =
  setup_logging ();
  exit (Cmd.eval main_cmd)
