open Relational

let src = Logs.Src.create "penguin.engine" ~doc:"view-object update engine"

module Log = (val Logs.src_log src : Logs.LOG)

(* --- observability (DESIGN.md section 5.4) --------------------------- *)

module M = Obs.Metrics

let m_stage_ns = M.histogram "engine.stage_ns"
let m_translate_ns = M.histogram "engine.translate_ns"
let m_stage_apply_ns = M.histogram "engine.stage_apply_ns"
let m_global_check_ns = M.histogram "engine.global_check_ns"
let m_commit_group_ns = M.histogram "engine.commit_group_ns"
let m_commits = M.counter "engine.commits"
let m_committed_updates = M.counter "engine.committed_updates"
let m_translation_rejected = M.counter "engine.translation_rejected"
let m_application_failed = M.counter "engine.application_failed"
let m_validation_failed = M.counter "engine.validation_failed"
let m_group_conflicts = M.counter "engine.group_conflicts"

type outcome = {
  request_kind : string;
  ops : Op.t list;
  result : Transaction.outcome;
  delta : Delta.t;
}

module OpSet = Set.Make (Op)

(* Drop ops that are exact duplicates of an earlier op (two sub-instances
   may legitimately demand the same outside insertion), preserving the
   first occurrence's position. *)
let dedup_ops ops =
  let _, rev =
    List.fold_left
      (fun (seen, acc) op ->
        if OpSet.mem op seen then seen, acc
        else OpSet.add op seen, op :: acc)
      (OpSet.empty, []) ops
  in
  List.rev rev

let translate g db vo spec request =
  Obs.Trace.with_span m_translate_ns
    ~tags:
      [ "object", vo.Viewobject.Definition.name;
        "kind", Request.kind_name request ]
  @@ fun () ->
  let result =
    match request with
    | Request.Insert inst -> Vo_ci.translate g db vo spec inst
    | Request.Delete inst -> Vo_cd.translate g db vo spec inst
    | Request.Replace { old_instance; new_instance } ->
        Vo_r.translate g db vo spec ~old_instance ~new_instance
  in
  Result.map dedup_ops result

(* --- staging --------------------------------------------------------- *)

type staged = {
  request : Request.t;
  request_kind : string;
  object_name : string;
  ops : Op.t list;
  delta : Delta.t;
  reads : Delta.footprint;
  base_version : int;
  base_db : Database.t;
  candidate : Database.t;
}

type stage_error =
  | Translation_rejected of string
  | Application_failed of {
      ops : Op.t list;
      reason : string;
      failed_op : Op.t option;
    }

let stage_error_reason = function
  | Translation_rejected reason -> reason
  | Application_failed { reason; _ } -> reason

(* The keys a translation depends on beyond the delta itself: every node
   occurrence of the instance(s) the request was phrased against. A
   concurrent change to any of them invalidates the translation (the
   instance the user edited is stale), even when the op lists do not
   collide. Node tuples only project their node's attributes, so keys
   inherited from the parent (e.g. the owning relation's key prefix)
   must be copied in first; nodes whose full key still cannot be bound
   are skipped rather than recorded under a junk partial key. *)
let instance_reads g vo db fp request =
  let rec instance fp (i : Viewobject.Instance.t) =
    let fp =
      match Database.schema_of db i.Viewobject.Instance.relation with
      | Error _ -> fp
      | Ok schema ->
          let key = Tuple.key_of schema i.Viewobject.Instance.tuple in
          if List.exists (fun v -> v = Value.Null) key then fp
          else
            Delta.footprint_add_read fp ~rel:i.Viewobject.Instance.relation
              ~key
    in
    List.fold_left
      (fun fp (_, subs) -> List.fold_left instance fp subs)
      fp i.Viewobject.Instance.children
  in
  let whole fp i =
    match Viewobject.Instantiate.extend_inherited g vo i with
    | Ok extended -> instance fp extended
    | Error _ -> instance fp i
  in
  match request with
  | Request.Insert _ -> fp
  | Request.Delete i -> whole fp i
  | Request.Replace { old_instance; _ } -> whole fp old_instance

let stage ?(base_version = 0) g db vo spec request =
  let request_kind = Request.kind_name request in
  let object_name = vo.Viewobject.Definition.name in
  Obs.Trace.with_span m_stage_ns
    ~tags:[ "object", object_name; "kind", request_kind ]
  @@ fun () ->
  Log.debug (fun m -> m "%s on %s: staging" request_kind object_name);
  match translate g db vo spec request with
  | Error reason ->
      M.Counter.incr m_translation_rejected;
      Log.info (fun m ->
          m "%s on %s rejected during translation: %s" request_kind object_name
            reason);
      Error (Translation_rejected reason)
  | Ok ops -> (
      Log.debug (fun m ->
          m "%s on %s: %d operation(s)" request_kind object_name
            (List.length ops));
      match
        Obs.Trace.with_span m_stage_apply_ns @@ fun () ->
        Transaction.run_delta db ops
      with
      | Transaction.Rolled_back { reason; failed_op }, _ ->
          M.Counter.incr m_application_failed;
          Log.warn (fun m ->
              m "%s on %s rolled back during application: %s" request_kind
                object_name reason);
          Error (Application_failed { ops; reason; failed_op })
      | Transaction.Committed candidate, delta ->
          let reads = instance_reads g vo db (Delta.footprint delta) request in
          Ok
            {
              request;
              request_kind;
              object_name;
              ops;
              delta;
              reads;
              base_version;
              base_db = db;
              candidate;
            })

(* --- group commit ---------------------------------------------------- *)

type group_rejection =
  | Group_conflict of {
      left : int;
      right : int;
      conflict : Delta.conflict;
    }
  | Group_op_failed of {
      index : int;
      reason : string;
      failed_op : Op.t option;
    }
  | Group_validation_failed of {
      culprit : int option;
      reason : string;
    }

let group_rejection_reason = function
  | Group_conflict { left; right; conflict } ->
      Fmt.str "group commit: staged updates #%d and #%d conflict: %s" left
        right
        (Delta.conflict_to_string conflict)
  | Group_op_failed { index; reason; _ } ->
      Fmt.str "group commit: staged update #%d failed to apply: %s" index
        reason
  | Group_validation_failed { culprit = Some i; reason } ->
      Fmt.str "group commit: staged update #%d failed global validation: %s" i
        reason
  | Group_validation_failed { culprit = None; reason } -> reason

let delta_writes_key delta ~rel ~key =
  List.exists
    (fun (r, keys) -> r = rel && List.exists (( = ) key) keys)
    (Delta.footprint_writes (Delta.footprint delta))

(* Merge the group's deltas left to right; on overlap, attribute the
   conflict to the earliest staged update writing the same key. *)
let merge_deltas staged =
  let rec go i acc = function
    | [] -> Ok acc
    | s :: rest -> (
        match Delta.merge acc s.delta with
        | Ok acc -> go (i + 1) acc rest
        | Error (c : Delta.conflict) ->
            let left =
              let rec find j = function
                | s :: _
                  when j < i && delta_writes_key s.delta ~rel:c.rel ~key:c.key
                  ->
                    j
                | _ :: rest -> find (j + 1) rest
                | [] -> 0
              in
              find 0 staged
            in
            Error (Group_conflict { left; right = i; conflict = c }))
  in
  go 0 Delta.empty staged

let apply_staged db s =
  (* Reuse the candidate computed at staging time when the base is
     physically unchanged (the common singleton / first-in-group case). *)
  if db == s.base_db then Ok s.candidate
  else
    match Database.apply_all db s.ops with
    | Ok db' -> Ok db'
    | Error (e, op) -> Error (Database.error_to_string e, op)

let apply_group db merged staged =
  let sequential () =
    let rec go i db = function
      | [] -> Ok db
      | s :: rest -> (
          match apply_staged db s with
          | Ok db -> go (i + 1) db rest
          | Error (reason, op) ->
              Error (Group_op_failed { index = i; reason; failed_op = Some op }))
    in
    go 0 db staged
  in
  match staged with
  | [ s ] when db == s.base_db -> Ok s.candidate
  | _ when List.for_all (fun s -> s.base_db == db) staged -> (
      (* Whole group staged against exactly this state: publish the
         merged delta in one batched pass (one catalog store per touched
         relation). On failure, replay per staged update to name it. *)
      match Database.apply_delta db merged with
      | Ok db' -> Ok db'
      | Error _ -> sequential ())
  | _ -> sequential ()

(* A merged-delta rejection names the batch, not the culprit: replay the
   group sequentially, validating each update's own delta against its
   intermediate state, to identify which staged update is at fault. *)
let find_culprit validation g db staged =
  let rec go i db = function
    | [] -> None
    | s :: rest -> (
        match apply_staged db s with
        | Error _ -> None
        | Ok db' -> (
            match
              Global_validation.validate validation g ~pre:db ~post:db'
                ~delta:s.delta
            with
            | Error reason -> Some (i, reason)
            | Ok () -> go (i + 1) db' rest))
  in
  go 0 db staged

let commit_group ?(validation = Global_validation.Incremental) g db staged =
  match staged with
  | [] -> Ok (db, Delta.empty)
  | _ ->
      let result =
        Obs.Trace.with_span m_commit_group_ns
          ~tags:
            [ "batch", string_of_int (List.length staged);
              "mode", Global_validation.mode_name validation ]
        @@ fun () ->
        let ( let* ) = Result.bind in
        let* merged = merge_deltas staged in
        let* post = apply_group db merged staged in
        match
          Obs.Trace.with_span m_global_check_ns
            ~tags:[ "mode", Global_validation.mode_name validation ]
          @@ fun () ->
          Global_validation.validate validation g ~pre:db ~post ~delta:merged
        with
        | Ok () ->
            Log.info (fun m ->
                m "group commit: %d staged update(s), %d net change(s), %s \
                   validation"
                  (List.length staged) (Delta.cardinal merged)
                  (Global_validation.mode_name validation));
            Ok (post, merged)
        | Error reason ->
            Log.warn (fun m ->
                m "group commit failed global validation: %s" reason);
            let culprit, reason =
              match find_culprit validation g db staged with
              | Some (i, reason) -> Some i, reason
              | None -> None, reason
            in
            Error (Group_validation_failed { culprit; reason })
      in
      (match result with
      | Ok _ ->
          M.Counter.incr m_commits;
          M.Counter.add m_committed_updates (List.length staged)
      | Error (Group_conflict _) -> M.Counter.incr m_group_conflicts
      | Error (Group_op_failed _) -> M.Counter.incr m_application_failed
      | Error (Group_validation_failed _) -> M.Counter.incr m_validation_failed);
      result

(* Greedy partition into conflict-free groups: each staged update joins
   the first group whose merged delta it does not collide with. Within a
   group, {!commit_group} applies updates in arrival order. *)
let plan_groups staged =
  let groups =
    List.fold_left
      (fun groups s ->
        let rec place = function
          | [] -> [ [ s ], s.delta ]
          | (members, merged) :: rest -> (
              match Delta.merge merged s.delta with
              | Ok merged -> (s :: members, merged) :: rest
              | Error _ -> (members, merged) :: place rest)
        in
        place groups)
      [] staged
  in
  List.map (fun (members, _) -> List.rev members) groups

(* --- the single-request pipeline, as a singleton group --------------- *)

let apply ?(validation = Global_validation.Incremental) g db vo spec request =
  let request_kind = Request.kind_name request in
  let rolled_back ops result =
    { request_kind; ops; result; delta = Delta.empty }
  in
  match stage g db vo spec request with
  | Error (Translation_rejected reason) ->
      rolled_back [] (Transaction.reject reason)
  | Error (Application_failed { ops; reason; failed_op }) ->
      rolled_back ops (Transaction.Rolled_back { reason; failed_op })
  | Ok staged -> (
      match commit_group ~validation g db [ staged ] with
      | Ok (db', delta) ->
          Log.info (fun m ->
              m "%s on %s committed (%d op(s), %s validation)" request_kind
                staged.object_name (List.length staged.ops)
                (Global_validation.mode_name validation));
          {
            request_kind;
            ops = staged.ops;
            result = Transaction.Committed db';
            delta;
          }
      | Error (Group_op_failed { reason; failed_op; _ }) ->
          rolled_back staged.ops (Transaction.Rolled_back { reason; failed_op })
      | Error (Group_validation_failed { reason; _ }) ->
          Log.warn (fun m ->
              m "%s on %s failed global validation: %s" request_kind
                staged.object_name reason);
          rolled_back staged.ops (Transaction.reject reason)
      | Error (Group_conflict _ as r) ->
          (* Unreachable: a singleton group cannot self-conflict. *)
          rolled_back staged.ops
            (Transaction.reject (group_rejection_reason r)))

let apply_exn ?validation g db vo spec request =
  match (apply ?validation g db vo spec request).result with
  | Transaction.Committed db' -> db'
  | Transaction.Rolled_back { reason; _ } -> failwith reason

let committed (outcome : outcome) =
  match outcome.result with
  | Transaction.Committed db -> Some db
  | Transaction.Rolled_back _ -> None

let pp_outcome ppf (o : outcome) =
  Fmt.pf ppf "@[<v>%s: %a@,ops:@,%a@]" o.request_kind Transaction.pp o.result
    Op.pp_list o.ops
