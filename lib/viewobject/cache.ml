open Relational
open Structural

let src =
  Logs.Src.create "viewobject.cache" ~doc:"materialized view-object cache"

module Log = (val Logs.src_log src : Logs.LOG)
module M = Obs.Metrics

let m_hits = M.counter "cache.hits"
let m_misses = M.counter "cache.misses"
let m_patched = M.counter "cache.patched"
let m_invalidated = M.counter "cache.invalidated"
let m_skipped = M.counter "cache.skipped"
let m_divergences = M.counter "cache.divergences"
let m_patch_ns = M.histogram "cache.patch_ns"
let m_warm_ns = M.histogram "cache.warm_ns"
let m_apply_delta_ns = M.histogram "cache.apply_delta_ns"

let ( let* ) = Result.bind

module SSet = Set.Make (String)
module SMap = Map.Make (String)

module KMap = Map.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

module KSet = Set.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

type def_state = {
  def : Definition.t;
  deps : SSet.t;
      (** every relation instantiation reads: nodes + path intermediates *)
  chains : Schema_graph.edge list list SMap.t;
      (** relation → root-to-relation edge chains (backwalk routes) *)
  mutable entries : Instance.t KMap.t option;  (** [None] = cold *)
}

type mode =
  | Normal
  | Paranoid

type t = {
  graph : Schema_graph.t;
  cmode : mode;
  mutable db : Database.t;
  mutable pos : int;
  mutable defs : (string * def_state) list;  (** registration order *)
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_patched : int;
  mutable s_invalidated : int;
  mutable s_skipped : int;
  mutable s_divergences : int;
}

let create ?(mode = Normal) graph ~db =
  {
    graph;
    cmode = mode;
    db;
    pos = 0;
    defs = [];
    s_hits = 0;
    s_misses = 0;
    s_patched = 0;
    s_invalidated = 0;
    s_skipped = 0;
    s_divergences = 0;
  }

let mode t = t.cmode
let db t = t.db
let position t = t.pos
let set_position t p = t.pos <- p

(* --- definition metadata -------------------------------------------- *)

let edge_key (e : Schema_graph.edge) =
  Connection.id e.conn ^ if e.forward then ">" else "<"

let chain_id c = String.concat "/" (List.map edge_key c)

(* One pass over the tree computes the two derived views the
   maintenance loop needs: the dependency set (skip decision) and every
   root-to-relation chain prefix (backwalk routes for affected-key
   discovery). *)
let compute_meta (vo : Definition.t) =
  let deps = ref (SSet.singleton vo.pivot) in
  let chains = ref SMap.empty in
  let add_chain rel c =
    chains :=
      SMap.update rel
        (fun l ->
          let l = Option.value l ~default:[] in
          if List.exists (fun c' -> String.equal (chain_id c') (chain_id c)) l
          then Some l
          else Some (l @ [ c ]))
        !chains
  in
  let rec go prefix (dn : Definition.node) =
    deps := SSet.add dn.relation !deps;
    List.iter
      (fun (cn : Definition.node) ->
        let prefix =
          List.fold_left
            (fun pfx e ->
              let pfx = pfx @ [ e ] in
              let rel = Schema_graph.edge_to e in
              deps := SSet.add rel !deps;
              add_chain rel pfx;
              pfx)
            prefix cn.path
        in
        go prefix cn)
      dn.children
  in
  go [] vo.root;
  !deps, !chains

let register t vo =
  let deps, chains = compute_meta vo in
  let ds = { def = vo; deps; chains; entries = None } in
  let name = vo.Definition.name in
  if List.mem_assoc name t.defs then
    t.defs <-
      List.map
        (fun (n, old) -> if String.equal n name then n, ds else n, old)
        t.defs
  else t.defs <- t.defs @ [ name, ds ]

let registered t = List.sort String.compare (List.map fst t.defs)

let find_state t name =
  match List.assoc_opt name t.defs with
  | Some ds -> Ok ds
  | None -> Error (Fmt.str "cache: no registered view object named %s" name)

let find_definition t name =
  Option.map (fun ds -> ds.def) (List.assoc_opt name t.defs)

let dependencies t name =
  match List.assoc_opt name t.defs with
  | None -> []
  | Some ds -> SSet.elements ds.deps

(* --- entry construction ---------------------------------------------- *)

(* One entry per pivot tuple: the pivot tuple determines its instance
   (Figure 4), and building it is a walk of index lookups, so a commit
   rebuilds the keys it reaches the same way ([patch_def]). *)
let build_def t ds =
  Obs.Trace.with_span m_warm_ns
    ~tags:[ "object", ds.def.Definition.name ]
  @@ fun () ->
  let pivot_rel = Database.relation_exn t.db ds.def.Definition.pivot in
  let entries =
    List.fold_left
      (fun m full ->
        KMap.add
          (Relation.key_of pivot_rel full)
          (Instantiate.of_pivot_tuple t.db ds.def full)
          m)
      KMap.empty (Relation.to_list pivot_rel)
  in
  ds.entries <- Some entries

let warm t =
  List.iter
    (fun (_, ds) -> if ds.entries = None then build_def t ds)
    t.defs

(* --- reads ----------------------------------------------------------- *)

(* The entries of [ds], built first when it is cold (a miss). *)
let served t ds =
  (match ds.entries with
  | Some _ ->
      t.s_hits <- t.s_hits + 1;
      M.Counter.incr m_hits
  | None ->
      t.s_misses <- t.s_misses + 1;
      M.Counter.incr m_misses;
      build_def t ds);
  match ds.entries with Some m -> m | None -> assert false

let instances t name =
  let* ds = find_state t name in
  Ok (List.map snd (KMap.bindings (served t ds)))

(* A condition whose pushed-down pivot predicate fixes the pivot key
   reads one entry; any other condition filters them all. *)
let query_state t ds cond =
  let m = served t ds in
  let holds = Vo_query.holds cond in
  let key =
    Schema.key_attributes
      (Schema_graph.schema_exn t.graph ds.def.Definition.pivot)
  in
  match Predicate.fixed_key key (Vo_query.pushdown ds.def cond) with
  | Some k -> (
      match KMap.find_opt k m with
      | Some i when holds i -> [ i ]
      | Some _ | None -> [])
  | None ->
      List.filter_map
        (fun (_, i) -> if holds i then Some i else None)
        (KMap.bindings m)

let query t name cond =
  let* ds = find_state t name in
  Ok (query_state t ds cond)

let oql t name q =
  let* ds = find_state t name in
  let* cond = Oql.parse ds.def q in
  Ok (query_state t ds cond)

(* --- incremental maintenance ----------------------------------------- *)

let invalidate_def t ds =
  if ds.entries <> None then begin
    ds.entries <- None;
    t.s_invalidated <- t.s_invalidated + 1;
    M.Counter.incr m_invalidated
  end

let invalidate_all t ~db =
  List.iter (fun (_, ds) -> invalidate_def t ds) t.defs;
  t.db <- db

(* A delta is only applicable if its old images match the state the
   cache sits on — [Added] keys absent, [Removed]/[Updated] old images
   present verbatim. A mismatch means the caller fed a delta from a
   different lineage (or skipped one); patching would silently corrupt. *)
let truthful_against db d =
  List.for_all
    (fun (rel, changes) ->
      match Database.relation db rel with
      | Error _ -> false
      | Ok r ->
          List.for_all
            (fun (key, c) ->
              match c, Relation.lookup r key with
              | Delta.Added _, None -> true
              | Delta.Added _, Some _ -> false
              | ( (Delta.Removed t0 | Delta.Updated { before = t0; _ }),
                  Some stored ) ->
                  Tuple.equal t0 stored
              | (Delta.Removed _ | Delta.Updated _), None -> false)
            changes)
    (Delta.bindings d)

let paranoid_check t =
  List.iter
    (fun (_, ds) ->
      match ds.entries with
      | None -> ()
      | Some m ->
          let cached = List.map snd (KMap.bindings m) in
          let fresh = Instantiate.instantiate t.db ds.def in
          if not (List.equal Instance.equal cached fresh) then begin
            t.s_divergences <- t.s_divergences + 1;
            M.Counter.incr m_divergences;
            Log.warn (fun k ->
                k "cache: paranoid cross-check diverged on %s; invalidating"
                  ds.def.Definition.name);
            invalidate_def t ds
          end)
    t.defs

let patch_def t ds ~post d =
  Obs.Trace.with_span m_patch_ns
    ~tags:[ "object", ds.def.Definition.name ]
  @@ fun () ->
  let entries = match ds.entries with Some m -> m | None -> assert false in
  let pivot = ds.def.Definition.pivot in
  let pivot_rel = Database.relation_exn post pivot in
  (* Affected pivot keys: direct pivot changes carry their key; any
     other change is walked backwards through every chain that reaches
     its relation, against the post state (if an upstream link vanished
     too, that link's own change backwalks from higher up). *)
  let affected = ref KSet.empty in
  List.iter
    (fun (rel, changes) ->
      if String.equal rel pivot then
        List.iter (fun (key, _) -> affected := KSet.add key !affected) changes;
      match SMap.find_opt rel ds.chains with
      | None -> ()
      | Some chains ->
          let images =
            List.concat_map
              (fun (_, c) ->
                match c with
                | Delta.Added u | Delta.Removed u -> [ u ]
                | Delta.Updated { before; after } -> [ before; after ])
              changes
          in
          List.iter
            (fun chain ->
              let back = List.rev_map Schema_graph.inverse chain in
              List.iter
                (fun img ->
                  List.iter
                    (fun p ->
                      affected :=
                        KSet.add (Relation.key_of pivot_rel p) !affected)
                    (List.fold_left
                       (fun ts e ->
                         List.concat_map (Instantiate.connected_via e post) ts)
                       [ img ] back))
                images)
            chains)
    (Delta.bindings d);
  let n = KSet.cardinal !affected in
  (* Each affected key is rebuilt against [post], or dropped with its
     pivot tuple. *)
  let entries =
    KSet.fold
      (fun key m ->
        match Relation.lookup pivot_rel key with
        | None -> KMap.remove key m
        | Some full ->
            KMap.add key (Instantiate.of_pivot_tuple post ds.def full) m)
      !affected entries
  in
  ds.entries <- Some entries;
  t.s_patched <- t.s_patched + n;
  M.Counter.add m_patched n;
  Obs.Trace.tag "patched" (string_of_int n);
  Log.debug (fun k ->
      k "cache: patched %d entr%s of %s" n
        (if n = 1 then "y" else "ies")
        ds.def.Definition.name)

let apply_delta t ~post d =
  Obs.Trace.with_span m_apply_delta_ns @@ fun () ->
  let touched = SSet.of_list (Delta.relations d) in
  let warm_defs = List.filter (fun (_, ds) -> ds.entries <> None) t.defs in
  let relevant, skipped =
    List.partition
      (fun (_, ds) -> not (SSet.disjoint touched ds.deps))
      warm_defs
  in
  List.iter
    (fun _ ->
      t.s_skipped <- t.s_skipped + 1;
      M.Counter.incr m_skipped)
    skipped;
  (if relevant <> [] then
     if truthful_against t.db d then
       List.iter (fun (_, ds) -> patch_def t ds ~post d) relevant
     else begin
       Log.warn (fun k ->
           k "cache: delta contradicts the cached state (foreign lineage?); \
              invalidating");
       List.iter (fun (_, ds) -> invalidate_def t ds) relevant
     end);
  t.db <- post;
  if t.cmode = Paranoid then paranoid_check t

type stats = {
  hits : int;
  misses : int;
  patched : int;
  invalidated : int;
  skipped : int;
  divergences : int;
}

let stats t =
  {
    hits = t.s_hits;
    misses = t.s_misses;
    patched = t.s_patched;
    invalidated = t.s_invalidated;
    skipped = t.s_skipped;
    divergences = t.s_divergences;
  }
