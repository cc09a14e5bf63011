(* The materialized view-object cache: a cached read must be
   observationally equal to a fresh instantiation against the cache's
   database at every point in any commit sequence — under sync,
   crash-recovery replay, journal rotation, and histories the cache
   must refuse to trust (barriers, foreign-lineage deltas, Paranoid
   divergences). *)
open Relational
open Structural
open Viewobject
open Test_util
module Ws = Penguin.Workspace

let instance_t = Alcotest.testable Instance.pp Instance.equal
let cached cache name = check_ok (Cache.instances cache name)

(* Every registered object, cached vs fresh against the cache's own
   database (which sync must have brought to the workspace's). *)
let matches ws cache =
  Cache.db cache == ws.Ws.db
  && List.for_all
       (fun name ->
         let vo = Option.get (Cache.find_definition cache name) in
         let fresh = Instantiate.instantiate ws.Ws.db vo in
         List.equal Instance.equal fresh (cached cache name))
       (Cache.registered cache)

let assert_matches ?(msg = "cached = fresh") ws cache =
  List.iter
    (fun name ->
      let vo = Option.get (Cache.find_definition cache name) in
      Alcotest.check (Alcotest.list instance_t)
        (Fmt.str "%s: %s" msg name)
        (Instantiate.instantiate ws.Ws.db vo)
        (cached cache name))
    (Cache.registered cache)

(* --- a random-update interpreter over the example fixtures ------------ *)

let fixtures =
  [|
    "university", Penguin.University.workspace;
    "hospital", Penguin.Hospital.workspace;
    "cad", Penguin.Cad.workspace;
  |]

let bump n = function
  | Value.Int i -> Value.Int (i + 1 + (n mod 7))
  | Value.Str s -> Value.Str (s ^ "~" ^ string_of_int (n mod 97))
  | Value.Float f -> Value.Float (f +. 1.5)
  | Value.Bool b -> Value.Bool (not b)
  | Value.Null -> Value.Null

let nth_rnd rnd l = List.nth l (rnd (List.length l))

(* One pseudo-random request against the named object, built from its
   current instances: delete one, rename its pivot key, or rewrite one
   non-key attribute of one node occurrence. [None] when nothing
   editable turns up; translator rejections downstream are equally fine
   — the property only cares that every *committed* state is served
   correctly. *)
let random_op rnd ws name =
  match Ws.instances ws name with
  | Error _ | Ok [] -> None
  | Ok insts -> (
      let inst = nth_rnd rnd insts in
      let vo = check_ok (Ws.find_object ws name) in
      let key_attrs_of rel =
        Schema.key_attributes (Schema_graph.schema_exn ws.Ws.graph rel)
      in
      match rnd 6 with
      | 0 -> Some (Vo_core.Request.delete inst)
      | 1 -> (
          (* Pivot-key rename: the entry must vanish under one cache key
             and reappear under another (or be rejected — also fine). *)
          let root = vo.Definition.root in
          match
            List.filter
              (fun a -> Tuple.mem inst.Instance.tuple a)
              (key_attrs_of vo.Definition.pivot)
          with
          | [] -> None
          | keys ->
              let a = nth_rnd rnd keys in
              let n = rnd 1000 in
              Result.to_option
                (Vo_core.Request.partial_modify inst
                   ~label:root.Definition.label ~at:inst.Instance.tuple
                   ~f:(fun t -> Tuple.set t a (bump n (Tuple.get t a)))))
      | _ -> (
          (* Rewrite one non-key attribute somewhere in the tree. *)
          let label, tup = nth_rnd rnd (Instance.flatten inst) in
          let node = Definition.find_exn vo label in
          let keys = key_attrs_of node.Definition.relation in
          match
            List.filter
              (fun a ->
                (not (List.mem a keys)) && Tuple.get tup a <> Value.Null)
              (Tuple.attributes tup)
          with
          | [] -> None
          | attrs ->
              let a = nth_rnd rnd attrs in
              let n = rnd 1000 in
              Result.to_option
                (Vo_core.Request.partial_modify inst ~label ~at:tup ~f:(fun t ->
                     Tuple.set t a (bump n (Tuple.get t a))))))

(* Run [steps] random updates with the cache riding along (pull sync
   after every attempt, committed or not) and check cached = fresh after
   each; returns false at the first divergence. *)
let run_scenario ?mode ~steps (fi, seed) =
  let _, mk = fixtures.(fi) in
  let ws = ref (mk ()) in
  let cache = Ws.attach_cache ?mode !ws in
  Cache.warm cache;
  let st = Random.State.make [| seed; fi |] in
  let rnd n = if n <= 1 then 0 else Random.State.int st n in
  let names = List.map fst !ws.Ws.objects in
  let ok = ref (matches !ws cache) in
  for _ = 1 to steps do
    let name = nth_rnd rnd names in
    (match random_op rnd !ws name with
    | None -> ()
    | Some req ->
        let ws', _outcome = Ws.update !ws name req in
        Ws.sync_cache ws' cache;
        ws := ws');
    ok := !ok && matches !ws cache
  done;
  !ok, cache

let scenario_arb =
  QCheck.make
    ~print:(fun (fi, seed) -> Fmt.str "%s/seed=%d" (fst fixtures.(fi)) seed)
    QCheck.Gen.(pair (int_bound (Array.length fixtures - 1)) (int_bound 1_000_000))

let prop_cached_equals_fresh =
  QCheck.Test.make
    ~name:"cached+patched = fresh after every commit (random sequences)"
    ~count:220 scenario_arb
    (fun sc -> fst (run_scenario ~steps:6 sc))

(* On a single honest lineage Paranoid mode must never fire: the
   cross-check is pure overhead, not a correctness crutch. *)
let prop_paranoid_never_diverges =
  QCheck.Test.make ~name:"Paranoid cross-check is silent on honest lineages"
    ~count:30 scenario_arb
    (fun sc ->
      let ok, cache = run_scenario ~mode:Cache.Paranoid ~steps:4 sc in
      ok && (Cache.stats cache).Cache.divergences = 0)

(* --- deterministic behaviour, university fixture ---------------------- *)

let grade_edit ws course pid grade =
  let inst =
    match
      Instantiate.instantiate
        ~where:(Predicate.eq_str "course_id" course)
        ws.Ws.db Penguin.University.omega
    with
    | [ i ] -> i
    | l -> Alcotest.failf "expected 1 instance of %s, got %d" course (List.length l)
  in
  match
    Vo_core.Request.partial_modify inst ~label:"GRADES"
      ~at:(Tuple.make [ "pid", Value.Int pid ])
      ~f:(fun t -> Tuple.set t "grade" (Value.Str grade))
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "building request on %s: %s" course e

let commit ws name req =
  let ws', outcome = Ws.update ws name req in
  let (_ : Database.t) = committed_db outcome in
  ws'

let test_hit_miss_equivalence () =
  let ws = Penguin.University.workspace () in
  let cache = Ws.attach_cache ws in
  Alcotest.(check (list string))
    "registered" [ "omega"; "omega_prime" ] (Cache.registered cache);
  Alcotest.(check int) "positioned at the log head" (Ws.version ws)
    (Cache.position cache);
  let cold = cached cache "omega" in
  let s = Cache.stats cache in
  Alcotest.(check int) "cold read is a miss" 1 s.Cache.misses;
  Alcotest.(check int) "no hits yet" 0 s.Cache.hits;
  let warm = cached cache "omega" in
  Alcotest.(check int) "warm read is a hit" 1 (Cache.stats cache).Cache.hits;
  Alcotest.check (Alcotest.list instance_t) "cold = warm" cold warm;
  Alcotest.check (Alcotest.list instance_t) "cold = Workspace.instances"
    (check_ok (Ws.instances ws "omega"))
    cold;
  match Cache.instances cache "nope" with
  | Ok _ -> Alcotest.fail "unknown object served"
  | Error e -> check_err_contains ~sub:"nope" (Error e)

let test_oql_through_cache () =
  let ws = Penguin.University.workspace () in
  let cache = Ws.attach_cache ws in
  let q = "level = 'grad' and count(STUDENT#2) < 5" in
  Alcotest.check (Alcotest.list instance_t) "cached OQL = Workspace.oql"
    (check_ok (Ws.oql ws "omega" q))
    (check_ok (Cache.oql cache "omega" q));
  (* A second run is served from the warm store. *)
  let hits = (Cache.stats cache).Cache.hits in
  let (_ : Instance.t list) = check_ok (Cache.oql cache "omega" q) in
  Alcotest.(check bool) "query reads count as hits" true
    ((Cache.stats cache).Cache.hits > hits)

let test_patch_on_commit () =
  let ws = Penguin.University.workspace () in
  let cache = Ws.attach_cache ws in
  Cache.warm cache;
  let ws = commit ws "omega" (grade_edit ws "CS345" 2 "A-") in
  Ws.sync_cache ws cache;
  let s = Cache.stats cache in
  Alcotest.(check bool) "entries were patched" true (s.Cache.patched >= 1);
  Alcotest.(check int) "nothing invalidated" 0 s.Cache.invalidated;
  Alcotest.(check int) "position follows the log" (Ws.version ws)
    (Cache.position cache);
  assert_matches ~msg:"after patch" ws cache;
  (* The patched reads above were hits — no rebuild happened. *)
  Alcotest.(check int) "no rebuild" 0 (Cache.stats cache).Cache.misses

(* A commit rebuilds exactly the entries its changed tuples reach: one
   course for a grade, every course of a department (counted here from
   a fresh instantiation, not from the backwalk) for a department. *)
let test_rebuild_stays_local () =
  let omega = Penguin.University.omega in
  let db = Penguin.University.seeded_db () in
  let cache = Cache.create Penguin.University.graph ~db in
  Cache.register cache omega;
  Cache.warm cache;
  let edit ~what ~rebuilt db rel key f =
    let t0 = Option.get (Relation.lookup (Database.relation_exn db rel) key) in
    let d =
      Delta.record Delta.empty ~rel ~key ~old_image:(Some t0)
        ~new_image:(Some (f t0))
    in
    let post =
      check_ok (Result.map_error Database.error_to_string (Database.apply_delta db d))
    in
    let before = (Cache.stats cache).Cache.patched in
    Cache.apply_delta cache ~post d;
    let s = Cache.stats cache in
    Alcotest.(check int) (what ^ ": entries rebuilt") rebuilt
      (s.Cache.patched - before);
    Alcotest.(check int) (what ^ ": nothing invalidated") 0 s.Cache.invalidated;
    Alcotest.(check int) (what ^ ": no miss") 0 s.Cache.misses;
    Alcotest.check (Alcotest.list instance_t)
      (what ^ ": cached = fresh")
      (Instantiate.instantiate post omega)
      (cached cache "omega");
    post
  in
  let db =
    edit ~what:"grade in CS345" ~rebuilt:1 db "GRADES"
      [ Value.Str "CS345"; Value.Int 2 ]
      (fun t -> Tuple.set t "grade" (Value.Str "A-"))
  in
  let dept = Value.Str "Computer Science" in
  let courses =
    List.length
      (List.filter
         (fun i ->
           List.exists
             (fun (d : Instance.t) ->
               Value.equal (Tuple.get d.Instance.tuple "dept_name") dept)
             (Instance.children_of i "DEPARTMENT"))
         (Instantiate.instantiate db omega))
  in
  Alcotest.(check bool) "the department has some courses, not all" true
    (courses > 1 && courses < List.length (cached cache "omega"));
  ignore
    (edit ~what:"department building" ~rebuilt:courses db "DEPARTMENT"
       [ dept ]
       (fun t -> Tuple.set t "building" (Value.Str "Huang"))
      : Database.t)

let test_skip_disjoint_delta () =
  let ws = Penguin.University.workspace () in
  let cache = Ws.attach_cache ws in
  (* A flat DEPARTMENT object: its dependency set is disjoint from a
     GRADES edit, so the patch must skip it untouched. *)
  Cache.register cache
    (Definition.make_exn ws.Ws.graph ~name:"departments" ~pivot:"DEPARTMENT"
       ~root:
         (Definition.node ~label:"DEPARTMENT" ~relation:"DEPARTMENT"
            ~attrs:[ "dept_name"; "building"; "budget" ]
            ~path:[] ~children:[]));
  Cache.warm cache;
  Alcotest.(check (list string))
    "flat object depends only on its pivot" [ "DEPARTMENT" ]
    (Cache.dependencies cache "departments");
  let ws = commit ws "omega" (grade_edit ws "CS345" 2 "B-") in
  Ws.sync_cache ws cache;
  let s = Cache.stats cache in
  Alcotest.(check bool) "disjoint object skipped" true (s.Cache.skipped >= 1);
  Alcotest.(check bool) "touched object patched" true (s.Cache.patched >= 1);
  assert_matches ~msg:"after skip" ws cache

let test_dependencies () =
  let ws = Penguin.University.workspace () in
  let cache = Ws.attach_cache ws in
  (* CURRICULUM is no node of omega — it is the m:n link relation the
     DEPARTMENT path walks through, and an edit to it re-links
     departments, so it must count as a dependency. *)
  Alcotest.(check (list string))
    "omega reads its island and the path relations"
    [ "COURSES"; "CURRICULUM"; "DEPARTMENT"; "GRADES"; "STUDENT" ]
    (Cache.dependencies cache "omega");
  (* omega_prime does not project GRADES, but its STUDENT#2 path walks
     through it — a GRADES edit can change the student set, so GRADES
     must be in the dependency set. *)
  Alcotest.(check bool) "path intermediates are dependencies" true
    (List.mem "GRADES" (Cache.dependencies cache "omega_prime"))

let test_barrier_invalidates () =
  let ws = Penguin.University.workspace () in
  let cache = Ws.attach_cache ws in
  Cache.warm cache;
  (* A wholesale swap records a barrier. The swapped-in database is
     physically new but logically identical — exactly the case the
     cache cannot distinguish, so only the barrier speaks. *)
  let scratch =
    Schema.make_exn ~name:"CACHE_SCRATCH"
      ~attributes:[ Attribute.int "id" ]
      ~key:[ "id" ]
  in
  let swapped =
    match
      Database.drop_relation
        (Database.create_relation_exn ws.Ws.db scratch)
        "CACHE_SCRATCH"
    with
    | Ok db -> db
    | Error e -> Alcotest.fail (Database.error_to_string e)
  in
  let ws = Ws.with_db ws swapped in
  Ws.sync_cache ws cache;
  let s = Cache.stats cache in
  Alcotest.(check int) "both warm objects dropped" 2 s.Cache.invalidated;
  Alcotest.(check int) "position follows the barrier" (Ws.version ws)
    (Cache.position cache);
  assert_matches ~msg:"after barrier" ws cache;
  Alcotest.(check bool) "reads after the barrier rebuild" true
    ((Cache.stats cache).Cache.misses >= 2)

let test_foreign_delta_invalidates () =
  let ws = Penguin.University.workspace () in
  let cache = Ws.attach_cache ws in
  Cache.warm cache;
  (* A delta claiming CS345 was just Added — but the cached state
     already holds it. The old-image cross-check must refuse to patch
     and invalidate instead of silently corrupting. *)
  let lie =
    Delta.record Delta.empty ~rel:"COURSES"
      ~key:[ Value.Str "CS345" ]
      ~old_image:None
      ~new_image:(Some (Tuple.make [ "course_id", Value.Str "CS345" ]))
  in
  Cache.apply_delta cache ~post:ws.Ws.db lie;
  let s = Cache.stats cache in
  Alcotest.(check bool) "contradicted objects invalidated" true
    (s.Cache.invalidated >= 1);
  Alcotest.(check int) "nothing patched from a lie" 0 s.Cache.patched;
  assert_matches ~msg:"after foreign delta" ws cache

let test_replay_warming () =
  let dir = temp_dir "cache-replay" in
  let store = Filename.concat dir "u.pgn" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let ws = Penguin.University.workspace () in
      check_ok_e (Penguin.Store.save_file ws store);
      let ws0, _report = check_ok_e (Penguin.Recovery.open_store store) in
      let cache = Ws.attach_cache ws0 in
      Cache.warm cache;
      let since = Ws.version ws0 in
      let ws1 = commit ws0 "omega" (grade_edit ws0 "CS345" 2 "D") in
      let (_ : Penguin.Recovery.persisted) =
        check_ok_e (Penguin.Recovery.persist ~store ~since ws1)
      in
      (* "Crash" before the cache saw the commit; reopening with the
         cache attached replays the journal entry as a real delta and
         patches the cache forward instead of rebuilding it. *)
      let before = Cache.stats cache in
      let ws2, report =
        check_ok_e (Penguin.Recovery.open_store ~cache store)
      in
      Alcotest.(check int) "one journal entry replayed" 1
        report.Penguin.Recovery.replayed;
      let s = Cache.stats cache in
      Alcotest.(check bool) "replay patched the cache" true
        (s.Cache.patched > before.Cache.patched);
      Alcotest.(check int) "replay did not invalidate" before.Cache.invalidated
        s.Cache.invalidated;
      assert_matches ~msg:"after replay" ws2 cache;
      Alcotest.(check int) "reads stayed warm (no rebuild)"
        before.Cache.misses (Cache.stats cache).Cache.misses)

let test_rotation_invalidates () =
  let dir = temp_dir "cache-rotate" in
  let store = Filename.concat dir "u.pgn" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let ws = Penguin.University.workspace () in
      check_ok_e (Penguin.Store.save_file ws store);
      let ws0, report = check_ok_e (Penguin.Recovery.open_store store) in
      let cache = Ws.attach_cache ws0 in
      Cache.warm cache;
      let since = Ws.version ws0 in
      let ws1 = commit ws0 "omega" (grade_edit ws0 "CS345" 2 "E") in
      (* A grade as long as the snapshot: the record reaches its size. *)
      let snapshot_bytes = report.Penguin.Recovery.snapshot_bytes in
      let ws1 =
        commit ws1 "omega" (grade_edit ws1 "CS101" 1 (String.make snapshot_bytes 'F'))
      in
      let persisted =
        check_ok_e (Penguin.Recovery.persist ~snapshot_bytes ~store ~since ws1)
      in
      Alcotest.(check bool) "journal folded into a snapshot" true
        persisted.Penguin.Recovery.rotated;
      (* The snapshot hides the history between the cache's position and
         the new head: no deltas to replay, so the cache must drop its
         entries rather than serve the old state. *)
      let before = Cache.stats cache in
      let ws2, _report = check_ok_e (Penguin.Recovery.open_store ~cache store) in
      Alcotest.(check bool) "hidden history invalidates" true
        ((Cache.stats cache).Cache.invalidated > before.Cache.invalidated);
      assert_matches ~msg:"after rotation" ws2 cache)

let test_paranoid_divergence () =
  let ws = Penguin.University.workspace () in
  let cache = Ws.attach_cache ~mode:Cache.Paranoid ws in
  Alcotest.(check bool) "mode recorded" true (Cache.mode cache = Cache.Paranoid);
  Cache.warm cache;
  let ws' = commit ws "omega" (grade_edit ws "CS345" 2 "A+") in
  (* A lying sync: claim the empty delta leads from the cached state to
     the post-commit database. Normal mode would happily keep serving
     the stale entries; Paranoid must catch the divergence and drop
     them instead of serving a wrong instance. *)
  Cache.apply_delta cache ~post:ws'.Ws.db Delta.empty;
  let s = Cache.stats cache in
  Alcotest.(check bool) "divergence detected" true (s.Cache.divergences >= 1);
  Alcotest.(check bool) "diverged object dropped" true
    (s.Cache.invalidated >= 1);
  Cache.set_position cache (Ws.version ws');
  assert_matches ~msg:"after divergence" ws' cache

(* --- keyed reads equal scanned reads ------------------------------------ *)

(* A read whose pivot predicate fixes the pivot key is a lookup in both
   Relation.select and Cache.query. On random states of the bench
   workloads, every such read must equal the scan it replaces. Keys and
   literals come from fixed pools, so each is present in some states and
   absent in others. *)
let grades_vo =
  let g = Penguin.University.graph in
  match
    Generate.prune g
      (Generate.tree Metric.default g ~pivot:"GRADES")
      ~name:"grades" ~keep:[ "GRADES", [] ]
  with
  | Ok vo -> vo
  | Error e -> invalid_arg e

let course_pool = [ "'BENCH001'"; "'BENCH007'"; "'BENCH1'"; "'CS345'"; "'NEW1'"; "'NOPE'" ]
let pid_pool = [ "1"; "2"; "1001"; "2001"; "2007"; "99" ]

(* Key atoms, with [= null] and wrong-typed literals among them. *)
let course_atom =
  QCheck.Gen.(
    oneof
      [ map (Fmt.str "course_id = %s") (oneofl course_pool);
        oneofl [ "course_id = null"; "course_id = 3" ] ])

let pid_atom =
  QCheck.Gen.(
    oneof
      [ map (Fmt.str "pid = %s") (oneofl pid_pool);
        oneofl [ "pid = null"; "pid = 'x'"; "pid > 2003" ] ])

(* Conditions on omega (pivot COURSES): key atoms mixed with pivot
   attributes, child-node and count conditions under and/or/not. *)
let omega_atom =
  QCheck.Gen.(
    frequency
      [ 4, course_atom;
        1, oneofl [ "level = 'grad'"; "units = 3"; "units > 3"; "title is null" ];
        1, map (Fmt.str "GRADES.pid = %s") (oneofl pid_pool);
        1, oneofl [ "GRADES.grade = 'A'"; "count(GRADES) >= 1"; "count(GRADES) = 0" ];
        1, map (Fmt.str "COURSES[course_id = %s and level = 'grad']") (oneofl course_pool) ])

(* Conditions on the GRADES-pivoted object: its key is the composite
   (course_id, pid), so a single atom binds only part of it. *)
let grades_atom =
  QCheck.Gen.(frequency [ 2, course_atom; 2, pid_atom; 1, return "grade = 'A'" ])

(* Selection predicates over COURSES and GRADES, built directly, so that
   keys also appear under [Or] and [Not] inside one predicate. *)
let pred_atom =
  let open QCheck.Gen in
  let course = oneofl [ "BENCH001"; "BENCH007"; "BENCH1"; "CS345"; "NOPE" ] in
  let pid = oneofl [ 1; 2; 1001; 2001; 2007; 99 ] in
  frequency
    [ 3, map (fun c -> Predicate.eq_str "course_id" c) course;
      3, map (fun p -> Predicate.eq_int "pid" p) pid;
      1, oneofl
           Predicate.
             [ eq "course_id" Value.Null; eq "pid" Value.Null;
               eq_int "course_id" 3; eq_str "pid" "x"; eq_str "grade" "A";
               gt_int "pid" 2003; eq_str "level" "grad" ] ]

let rec pred_gen depth =
  let open QCheck.Gen in
  if depth = 0 then pred_atom
  else
    let sub = pred_gen (depth - 1) in
    frequency
      [ 2, pred_atom;
        3, map2 (fun a b -> Predicate.And (a, b)) sub sub;
        1, map2 (fun a b -> Predicate.Or (a, b)) sub sub;
        1, map (fun a -> Predicate.Not a) sub ]

let rec cond_gen atom depth =
  let open QCheck.Gen in
  if depth = 0 then atom
  else
    let sub = cond_gen atom (depth - 1) in
    frequency
      [ 2, atom;
        3, map2 (Fmt.str "(%s) and (%s)") sub sub;
        1, map2 (Fmt.str "(%s) or (%s)") sub sub;
        1, map (Fmt.str "not (%s)") sub ]

(* A state: a bench workload of a random size, then a few seeded
   single-op commits fed to a Paranoid cache. *)
type point_case = {
  courses : bool;  (** [courses_db] or [enrollment_db] *)
  size : int;
  edits : int;  (** seed of the commit sequence *)
  omega_qs : string list;
  grades_qs : string list;
  preds : Predicate.t list;  (** run on COURSES and on GRADES *)
}

let point_case_arb =
  let open QCheck.Gen in
  let gen =
    let* courses = bool in
    let* size = int_bound 24 in
    let* edits = int_bound 1_000_000 in
    let* omega_qs = list_size (int_range 1 6) (cond_gen omega_atom 2) in
    let* grades_qs = list_size (int_range 1 6) (cond_gen grades_atom 2) in
    let* preds = list_size (int_range 1 6) (pred_gen 3) in
    return { courses; size; edits; omega_qs; grades_qs; preds }
  in
  QCheck.make gen ~print:(fun c ->
      Fmt.str "%s %d, edits seed %d@.omega: %a@.grades: %a@.select: %a"
        (if c.courses then "courses_db" else "enrollment_db")
        c.size c.edits
        Fmt.(list ~sep:(any " | ") string) c.omega_qs
        Fmt.(list ~sep:(any " | ") string) c.grades_qs
        Fmt.(list ~sep:(any " | ") Predicate.pp) c.preds)

let random_edit st db i =
  let r = Database.relation_exn db "GRADES" in
  let grades = Relation.to_list r in
  let pick () = List.nth grades (Random.State.int st (List.length grades)) in
  match Random.State.int st 3, grades with
  | 0, _ :: _ ->
      let t = pick () in
      Op.Replace
        ("GRADES", Relation.key_of r t, Tuple.set t "grade" (Value.Str (Fmt.str "Z%d" i)))
  | 1, _ :: _ -> Op.Delete ("GRADES", Relation.key_of r (pick ()))
  | _ ->
      Op.Insert
        ( "COURSES",
          Tuple.make
            [ "course_id", Value.Str (Fmt.str "NEW%d" i); "title", Value.Null;
              "units", Value.Int 4; "level", Value.Str "grad";
              "dept_name", Value.Str "Computer Science" ] )

let point_state c =
  let db =
    if c.courses then Workloads.courses_db c.size
    else Workloads.enrollment_db c.size
  in
  let cache = Cache.create ~mode:Cache.Paranoid Penguin.University.graph ~db in
  Cache.register cache Penguin.University.omega;
  Cache.register cache grades_vo;
  Cache.warm cache;
  let st = Random.State.make [| c.edits |] in
  let db = ref db in
  for i = 1 to Random.State.int st 4 do
    match Database.apply_all_delta !db [ random_edit st !db i ] with
    | Ok (db', delta) ->
        Cache.apply_delta cache ~post:db' delta;
        db := db'
    | Error (e, _) -> Alcotest.fail (Database.error_to_string e)
  done;
  !db, cache

let same_instances what q a b =
  List.equal Instance.equal a b
  || QCheck.Test.fail_reportf "%s differ on %S: %d vs %d instances" what q
       (List.length a) (List.length b)

let prop_keyed_reads_equal_scans =
  QCheck.Test.make ~name:"keyed reads = scanned reads (cache, OQL, select)"
    ~count:150 point_case_arb (fun c ->
      let db, cache = point_state c in
      let select rel p =
        let r = Database.relation_exn db rel in
        List.equal Tuple.equal (Relation.select p r)
          (List.filter (Predicate.eval p) (Relation.to_list r))
        || QCheck.Test.fail_reportf "Relation.select on %s differs on %a" rel
             Predicate.pp p
      in
      let reads (vo : Definition.t) q =
        let cond = check_ok (Oql.parse vo q) in
        let scanned =
          List.filter (Vo_query.holds cond) (Instantiate.instantiate db vo)
        in
        same_instances "Cache.oql and the scan" q
          (check_ok (Cache.oql cache vo.Definition.name q)) scanned
        && same_instances "Oql.run and the scan" q
             (check_ok (Oql.run db vo q)) scanned
        && select vo.Definition.pivot (Vo_query.pushdown vo cond)
      in
      List.for_all (reads Penguin.University.omega) c.omega_qs
      && List.for_all (reads grades_vo) c.grades_qs
      && List.for_all (fun p -> select "COURSES" p && select "GRADES" p) c.preds
      && (Cache.stats cache).Cache.divergences = 0)

let suite =
  [
    Alcotest.test_case "cold miss, warm hit, both equal fresh" `Quick
      test_hit_miss_equivalence;
    Alcotest.test_case "OQL through the cache" `Quick test_oql_through_cache;
    Alcotest.test_case "commit + sync patches incrementally" `Quick
      test_patch_on_commit;
    Alcotest.test_case "a commit rebuilds only the entries it reaches" `Quick
      test_rebuild_stays_local;
    Alcotest.test_case "disjoint delta skips" `Quick test_skip_disjoint_delta;
    Alcotest.test_case "dependency sets include path intermediates" `Quick
      test_dependencies;
    Alcotest.test_case "barrier invalidates" `Quick test_barrier_invalidates;
    Alcotest.test_case "foreign-lineage delta invalidates" `Quick
      test_foreign_delta_invalidates;
    Alcotest.test_case "recovery replay warms the cache" `Quick
      test_replay_warming;
    Alcotest.test_case "journal rotation invalidates" `Quick
      test_rotation_invalidates;
    Alcotest.test_case "Paranoid mode catches a lying sync" `Quick
      test_paranoid_divergence;
    qtest prop_cached_equals_fresh;
    qtest prop_paranoid_never_diverges;
    qtest prop_keyed_reads_equal_scans;
  ]
