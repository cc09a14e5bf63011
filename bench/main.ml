(* Benchmark harness: one bechamel test (or test series) per experiment of
   EXPERIMENTS.md, preceded by the paper-artifact reproductions.

   Run with: dune exec bench/main.exe [-- --quick] [-- --json FILE]

     --quick      smoke mode: tiny measurement quota and reduced sweeps
                  (CI uses this to exercise every experiment per push)
     --json FILE  additionally write per-group ns/op results to FILE,
                  for BENCH_*.json trajectory tracking *)

open Bechamel
open Relational
open Structural
open Viewobject

let quick = ref false
let json_path : string option ref = ref None

(* --only e16 (or --only e13,e16): run a subset of the experiments —
   iteration and CI triage; the gate still wants the full set. *)
let only : string list ref = ref []

let parse_argv () =
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        go rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        go rest
    | [ "--json" ] -> failwith "--json requires a file argument"
    | "--only" :: names :: rest ->
        only := String.split_on_char ',' names;
        go rest
    | [ "--only" ] -> failwith "--only requires an experiment list"
    | arg :: _ -> failwith (Fmt.str "unknown argument %s" arg)
  in
  go (List.tl (Array.to_list Sys.argv))

let want name f = if !only = [] || List.mem name !only then f ()

(* Collected (group, (test name, ns/op) list), in run order. *)
let collected : (string * (string * float) list) list ref = ref []

(* The document Bench_gate.parse (the CI regression gate) and the
   BENCH_*.json trajectory tooling read. Written crash-safely: a bench
   process killed mid-write must not leave a truncated document where
   the gate would misread it as "every group missing". *)
let write_json path =
  let module J = Obs.Json in
  let groups =
    List.rev_map
      (fun (group, rows) ->
        J.Obj
          [ "group", J.Str group;
            "results",
            J.Arr
              (List.map
                 (fun (name, ns) ->
                   J.Obj
                     [ "name", J.Str name;
                       "ns_per_op",
                       (if Float.is_finite ns then J.Num ns else J.Null) ])
                 rows) ])
      !collected
  in
  let doc =
    J.Obj
      [ "quick", J.Bool !quick;
        "groups", J.Arr groups;
        "metrics", Obs.Metrics.to_json () ]
  in
  match
    Penguin.Fsio.(atomic_write default) ~path (J.to_string doc ^ "\n")
  with
  | Ok () -> Fmt.pr "@.wrote benchmark results to %s@." path
  | Error e ->
      failwith (Fmt.str "writing %s: %s" path (Penguin.Error.to_string e))

let section title = Fmt.pr "@.==================== %s ====================@." title

(* --- bechamel driver ------------------------------------------------ *)

let run_group name tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    if !quick then Benchmark.cfg ~limit:200 ~quota:(Time.second 0.02) ~kde:None ()
    else Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let grouped = Test.make_grouped ~name ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun test_name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | _ -> nan
        in
        (test_name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Fmt.pr "@.%-58s %14s %14s@." "benchmark" "time/run" "runs/sec";
  Fmt.pr "%s@." (String.make 88 '-');
  List.iter
    (fun (n, ns) ->
      let time_str =
        if ns < 1_000. then Fmt.str "%.0f ns" ns
        else if ns < 1_000_000. then Fmt.str "%.2f us" (ns /. 1e3)
        else Fmt.str "%.3f ms" (ns /. 1e6)
      in
      Fmt.pr "%-58s %14s %14.0f@." n time_str (1e9 /. ns))
    rows;
  collected := (name, rows) :: !collected;
  rows

let stage = Staged.stage

(* --- E1: Figure 1, structural-schema construction ------------------- *)

let e1 () =
  section "E1 (Figure 1): structural schema";
  Fmt.pr "%s@." (Penguin.Paper.figure1 ());
  let university_schemas =
    List.map
      (Schema_graph.schema_exn Penguin.University.graph)
      (Schema_graph.relations Penguin.University.graph)
  in
  let university_conns = Schema_graph.connections Penguin.University.graph in
  let build_university () =
    match Schema_graph.make university_schemas university_conns with
    | Ok g -> g
    | Error e -> failwith e
  in
  let chain_test n =
    let schemas = List.init n Workloads.chain_relation in
    let g = Workloads.chain_graph n in
    let conns = Schema_graph.connections g in
    Test.make ~name:(Fmt.str "validate-chain:%d" n)
      (stage (fun () ->
           match Schema_graph.make schemas conns with
           | Ok g -> g
           | Error e -> failwith e))
  in
  ignore
    (run_group "e1"
       (Test.make ~name:"validate-university" (stage build_university)
       :: List.map chain_test [ 8; 32; 128 ]))

(* --- E2/E3: Figures 2-3, view-object generation --------------------- *)

let e2_e3 () =
  section "E2 (Figure 2): view-object generation";
  Fmt.pr "%s@." (Penguin.Paper.figure2a ());
  Fmt.pr "%s@." (Penguin.Paper.figure2b ());
  Fmt.pr "%s@." (Penguin.Paper.figure2c ());
  section "E3 (Figure 3): alternate view object";
  Fmt.pr "%s@." (Penguin.Paper.figure3 ());
  let g = Penguin.University.graph in
  let omega_gen () =
    let tree = Generate.tree Metric.default g ~pivot:"COURSES" in
    match Generate.prune g tree ~name:"omega" ~keep:Penguin.University.omega_keep with
    | Ok vo -> vo
    | Error e -> failwith e
  in
  let omega_prime_gen () =
    let tree = Generate.tree Metric.default g ~pivot:"COURSES" in
    match
      Generate.prune g tree ~name:"omega_prime"
        ~keep:
          [ "COURSES", [ "course_id"; "title"; "units"; "level" ];
            Penguin.University.faculty_label, [ "pid"; "rank"; "office" ];
            Penguin.University.student_label, [ "pid"; "degree_program"; "year" ] ]
    with
    | Ok vo -> vo
    | Error e -> failwith e
  in
  let expand_chain n =
    let cg = Workloads.chain_graph n in
    Test.make ~name:(Fmt.str "expand-chain:%d" n)
      (stage (fun () -> Generate.tree (Metric.make ~threshold:0.01 ()) cg ~pivot:"R0"))
  in
  let threshold_sweep t =
    let metric = Metric.make ~threshold:t () in
    Test.make ~name:(Fmt.str "expand-university:theta=%.2f" t)
      (stage (fun () -> Generate.tree metric g ~pivot:"COURSES"))
  in
  ignore
    (run_group "e2-e3"
       ([ Test.make ~name:"generate-omega (fig2)" (stage omega_gen);
          Test.make ~name:"generate-omega-prime (fig3)" (stage omega_prime_gen) ]
       @ List.map expand_chain [ 4; 8; 16 ]
       @ List.map threshold_sweep [ 0.3; 0.5; 0.9 ]))

(* --- E4: Figure 4, instantiation ------------------------------------ *)

let e4 () =
  section "E4 (Figure 4): instantiation";
  Fmt.pr "%s@." (Penguin.Paper.figure4 ());
  let db = Penguin.University.seeded_db () in
  let omega = Penguin.University.omega in
  let q =
    Vo_query.C_and
      ( Vo_query.C_node ("COURSES", Predicate.eq_str "level" "grad"),
        Vo_query.C_count (Penguin.University.student_label, Predicate.Lt, 5) )
  in
  (* The default path: connection indexes come with the database
     ({!Schema_graph}), so instantiation is index-served out of the box. *)
  let fanout_test gsize =
    let dbg = Workloads.enrollment_db gsize in
    Test.make ~name:(Fmt.str "instantiate-course:fanout=%d" gsize)
      (stage (fun () ->
           Instantiate.instantiate
             ~where:(Predicate.eq_str "course_id" "BENCH1")
             dbg omega))
  in
  (* ablation: the same walk with the indexes stripped — every child
     fetch degrades to a relation scan *)
  let fanout_noindex_test gsize =
    let dbg = Workloads.strip_indexes (Workloads.enrollment_db gsize) in
    Test.make ~name:(Fmt.str "instantiate-course:fanout=%d,noindex" gsize)
      (stage (fun () ->
           Instantiate.instantiate
             ~where:(Predicate.eq_str "course_id" "BENCH1")
             dbg omega))
  in
  let pushdown_db = Workloads.enrollment_db 64 in
  let pd_query =
    Vo_query.C_node ("COURSES", Predicate.eq_str "course_id" "CS345")
  in
  ignore
    (run_group "e4"
       ([ Test.make ~name:"figure4-query" (stage (fun () -> Vo_query.run db omega q)) ]
       @ List.map fanout_test [ 1; 16; 64; 256 ]
       @ List.map fanout_noindex_test [ 64; 256 ]
       @ [
           (* ablation: pivot-predicate pushdown on/off *)
           Test.make ~name:"query:pushdown-on"
             (stage (fun () -> Vo_query.run pushdown_db omega pd_query));
           Test.make ~name:"query:pushdown-off"
             (stage (fun () ->
                  List.filter
                    (Vo_query.holds pd_query)
                    (Instantiate.instantiate pushdown_db omega)));
         ]))

(* --- E5: Section 6 dialog & amortization ----------------------------- *)

let choose_omega () =
  Vo_core.Dialog.choose ~ask_insertion:false ~ask_deletion:false
    Penguin.University.graph Penguin.University.omega
    (Vo_core.Dialog.scripted Vo_core.Dialog.paper_omega_answers)

let e5 () =
  section "E5 (Section 6): translator-choice dialog";
  Fmt.pr "%s@." (Penguin.Paper.section6_dialog ());
  Fmt.pr "@.With DEPARTMENT locked (footnote 5 pruning):@.%s@."
    (Penguin.Paper.section6_dialog_restrictive ());
  let _, events = choose_omega () in
  let n_questions = Vo_core.Dialog.question_count events in
  Fmt.pr
    "@.Question counts: full dialog %d; with DEPARTMENT locked %d (pruned).@."
    n_questions
    (let _, e' =
       Vo_core.Dialog.choose ~ask_insertion:false ~ask_deletion:false
         Penguin.University.graph Penguin.University.omega
         (Vo_core.Dialog.scripted Vo_core.Dialog.restrictive_department_answers)
     in
     Vo_core.Dialog.question_count e');
  (* Amortization: the dialog happens once per object, not once per
     update. Questions asked for N updates: *)
  Fmt.pr "@.DBA questions for N updates (the paper's amortization claim):@.";
  Fmt.pr "%-8s %26s %26s@." "N" "translator-at-definition" "dialog-per-update";
  List.iter
    (fun n ->
      Fmt.pr "%-8d %26d %26d@." n n_questions (n * n_questions))
    [ 1; 10; 100; 1000 ];
  let g = Penguin.University.graph in
  let omega = Penguin.University.omega in
  let db = Penguin.University.seeded_db () in
  let _spec = Penguin.University.omega_translator in
  let base_instance = Penguin.University.cs345_instance db in
  let request =
    match
      Vo_core.Request.partial_modify base_instance ~label:"GRADES"
        ~at:(Tuple.make [ "pid", Value.Int 1 ])
        ~f:(fun t -> Tuple.set t "grade" (Value.Str "A+"))
    with
    | Ok r -> r
    | Error e -> failwith e
  in
  let updates n spec =
    for _ = 1 to n do
      ignore (Vo_core.Engine.apply g db omega spec request)
    done
  in
  let amortized n =
    Test.make ~name:(Fmt.str "amortized:updates=%d" n)
      (stage (fun () ->
           let spec, _ = choose_omega () in
           updates n spec))
  in
  let per_update n =
    Test.make ~name:(Fmt.str "dialog-per-update:updates=%d" n)
      (stage (fun () ->
           for _ = 1 to n do
             let spec, _ = choose_omega () in
             updates 1 spec
           done))
  in
  let star n =
    let sg = Workloads.star_graph n in
    let vo =
      match Generate.full (Metric.make ~threshold:0.3 ()) sg ~name:"star" ~pivot:"PIVOT" with
      | Ok vo -> vo
      | Error e -> failwith e
    in
    Test.make ~name:(Fmt.str "dialog-star:relations=%d" n)
      (stage (fun () -> Vo_core.Dialog.choose sg vo Vo_core.Dialog.all_yes))
  in
  ignore
    (run_group "e5"
       ([ Test.make ~name:"choose-translator (omega)" (stage choose_omega) ]
       @ List.map star [ 2; 8; 32 ]
       @ List.concat_map (fun n -> [ amortized n; per_update n ]) [ 1; 10; 100 ]))

(* --- E6: the EES345 replacement -------------------------------------- *)

let e6 () =
  section "E6 (Section 6): EES345 replacement under both translators";
  Fmt.pr "%s@." (Penguin.Paper.ees345_example ());
  let g = Penguin.University.graph in
  let omega = Penguin.University.omega in
  let db = Penguin.University.seeded_db () in
  let old_i = Penguin.University.cs345_instance db in
  let new_i = Penguin.University.ees345_replacement old_i in
  let request = Vo_core.Request.replace ~old_instance:old_i ~new_instance:new_i in
  ignore
    (run_group "e6"
       [
         Test.make ~name:"replace-permissive (commit)"
           (stage (fun () ->
                Vo_core.Engine.apply g db omega
                  Penguin.University.omega_translator request));
         Test.make ~name:"replace-restrictive (reject)"
           (stage (fun () ->
                Vo_core.Engine.apply g db omega
                  Penguin.University.omega_translator_restrictive request));
       ])

(* --- E7: algorithm scaling ------------------------------------------- *)

let e7 () =
  section "E7: VO-CD / VO-CI / VO-R scaling";
  let cd_chain depth =
    let g = Workloads.chain_graph depth in
    let db = Workloads.populate_chain g ~depth ~fanout:4 in
    let vo = Workloads.chain_object g in
    let inst = Workloads.chain_instance db vo in
    let spec = Vo_core.Translator_spec.permissive ~object_name:"chain" in
    Test.make ~name:(Fmt.str "vo-cd:island-depth=%d" depth)
      (stage (fun () ->
           match Vo_core.Vo_cd.translate g db vo spec inst with
           | Ok ops -> ops
           | Error e -> failwith e))
  in
  let ci_chain depth =
    let g = Workloads.chain_graph depth in
    let db = Workloads.populate_chain g ~depth ~fanout:4 in
    let vo = Workloads.chain_object g in
    let inst = Workloads.chain_instance db vo in
    let empty = Schema_graph.create_database g in
    let spec = Vo_core.Translator_spec.permissive ~object_name:"chain" in
    Test.make ~name:(Fmt.str "vo-ci:island-depth=%d" depth)
      (stage (fun () ->
           match Vo_core.Vo_ci.translate g empty vo spec inst with
           | Ok ops -> ops
           | Error e -> failwith e))
  in
  let r_fixups n =
    let db = Workloads.curriculum_db n in
    let omega = Penguin.University.omega in
    let g = Penguin.University.graph in
    let old_i = Penguin.University.cs345_instance db in
    let new_i =
      Instance.with_tuple old_i
        (Tuple.set old_i.Instance.tuple "course_id" (Value.Str "CS346"))
    in
    let spec = Penguin.University.omega_translator in
    Test.make ~name:(Fmt.str "vo-r:peninsula-rows=%d" n)
      (stage (fun () ->
           match Vo_core.Vo_r.translate g db omega spec ~old_instance:old_i ~new_instance:new_i with
           | Ok ops -> ops
           | Error e -> failwith e))
  in
  let identity =
    let db = Penguin.University.seeded_db () in
    let g = Penguin.University.graph in
    let omega = Penguin.University.omega in
    let i = Penguin.University.cs345_instance db in
    let spec = Penguin.University.omega_translator in
    Test.make ~name:"vo-r:identity (all R-1)"
      (stage (fun () ->
           match Vo_core.Vo_r.translate g db omega spec ~old_instance:i ~new_instance:i with
           | Ok ops -> ops
           | Error e -> failwith e))
  in
  ignore
    (run_group "e7"
       (List.map cd_chain [ 2; 3; 4 ]
       @ List.map ci_chain [ 2; 3; 4 ]
       @ List.map r_fixups [ 10; 100; 1000 ]
       @ [ identity ]))

(* --- E8: flat-view baseline vs view object --------------------------- *)

let e8 () =
  section "E8: Keller flat-view baseline vs view object";
  let db = Penguin.University.seeded_db () in
  let g = Penguin.University.graph in
  let flat = Workloads.flat_course_view db in
  let flat_tr =
    { (Keller.Translator.default flat) with
      Keller.Translator.delete_from = [ "COURSES"; "GRADES" ] }
  in
  let mini = Workloads.mini_omega in
  let mini_spec = Penguin.University.omega_translator in
  let inst =
    match
      Instantiate.instantiate ~where:(Predicate.eq_str "course_id" "CS345") db mini
    with
    | [ i ] -> i
    | _ -> failwith "mini instance"
  in
  (* the same logical update: remove course CS345 with its grades *)
  let keller_delete () =
    match
      Keller.Translator.translate db flat_tr
        (Keller.Criteria.V_delete (Tuple.make [ "course_id", Value.Str "CS345" ]))
    with
    | Ok ops -> ops
    | Error e -> failwith e
  in
  let vo_delete () =
    match
      Vo_core.Vo_cd.translate g db mini
        { mini_spec with Vo_core.Translator_spec.reference_actions = [];
          default_reference_action = Structural.Integrity.Delete_referencing }
        inst
    with
    | Ok ops -> ops
    | Error e -> failwith e
  in
  let keller_ops = keller_delete () in
  let vo_ops = vo_delete () in
  Fmt.pr "@.same logical deletion (CS345 and its grades):@.";
  Fmt.pr "  flat view translation: %d ops (view rows enumerated per base relation)@."
    (List.length keller_ops);
  Fmt.pr "  view object translation: %d ops (island + peninsula handling built in)@."
    (List.length vo_ops);
  let keller_replace () =
    match
      Keller.Translator.translate db flat_tr
        (Keller.Criteria.V_replace
           ( Tuple.make [ "course_id", Value.Str "CS345"; "pid", Value.Int 1 ],
             Tuple.make [ "grade", Value.Str "A+" ] ))
    with
    | Ok ops -> ops
    | Error e -> failwith e
  in
  let vo_replace_req =
    let i =
      match
        Instantiate.instantiate ~where:(Predicate.eq_str "course_id" "CS345") db mini
      with
      | [ i ] -> i
      | _ -> failwith "mini"
    in
    match
      Vo_core.Request.partial_modify i ~label:"GRADES"
        ~at:(Tuple.make [ "pid", Value.Int 1 ])
        ~f:(fun t -> Tuple.set t "grade" (Value.Str "A+"))
    with
    | Ok (Vo_core.Request.Replace { old_instance; new_instance }) ->
        old_instance, new_instance
    | _ -> failwith "request"
  in
  let vo_replace () =
    let old_instance, new_instance = vo_replace_req in
    match
      Vo_core.Vo_r.translate g db mini mini_spec ~old_instance ~new_instance
    with
    | Ok ops -> ops
    | Error e -> failwith e
  in
  ignore
    (run_group "e8"
       [
         Test.make ~name:"keller:delete-course" (stage keller_delete);
         Test.make ~name:"vo:delete-course" (stage vo_delete);
         Test.make ~name:"keller:grade-change" (stage keller_replace);
         Test.make ~name:"vo:grade-change" (stage vo_replace);
       ])

(* --- E9: full vs incremental global validation ----------------------- *)

let e9 () =
  section "E9: delta-driven incremental global validation";
  let g = Penguin.University.graph in
  let omega = Penguin.University.omega in
  let spec = Penguin.University.omega_translator in
  (* One grade change on BENCH1 against university databases of growing
     cardinality: full validation re-checks every connection against
     every tuple, incremental only the transaction's delta. *)
  let case fanout =
    let db = Workloads.enrollment_db fanout in
    let inst = Workloads.bench1_instance db in
    let request =
      match
        Vo_core.Request.partial_modify inst ~label:"GRADES"
          ~at:(Tuple.make [ "pid", Value.Int 1001 ])
          ~f:(fun t -> Tuple.set t "grade" (Value.Str "B"))
      with
      | Ok r -> r
      | Error e -> failwith e
    in
    let ops =
      match Vo_core.Engine.translate g db omega spec request with
      | Ok ops -> ops
      | Error e -> failwith e
    in
    let db', delta =
      match Transaction.run_delta db ops with
      | Transaction.Committed db', delta -> db', delta
      | Transaction.Rolled_back { reason; _ }, _ -> failwith reason
    in
    db, db', delta, request
  in
  let validation_tests fanout =
    let _, db', delta, _ = case fanout in
    let n = Database.total_tuples db' in
    [
      Test.make ~name:(Fmt.str "validate-full:tuples=%06d" n)
        (stage (fun () -> Structural.Integrity.check g db'));
      Test.make ~name:(Fmt.str "validate-incremental:tuples=%06d" n)
        (stage (fun () -> Structural.Integrity.check_delta g db' ~delta));
    ]
  in
  let engine_tests fanout =
    let db, _, _, request = case fanout in
    let n = Database.total_tuples db in
    [
      Test.make ~name:(Fmt.str "engine-full:tuples=%06d" n)
        (stage (fun () ->
             Vo_core.Engine.apply ~validation:Vo_core.Global_validation.Full g
               db omega spec request));
      Test.make ~name:(Fmt.str "engine-incremental:tuples=%06d" n)
        (stage (fun () ->
             Vo_core.Engine.apply
               ~validation:Vo_core.Global_validation.Incremental g db omega
               spec request));
    ]
  in
  let fanouts = if !quick then [ 30 ] else [ 30; 300; 3400 ] in
  let rows =
    run_group "e9"
      (List.concat_map validation_tests fanouts
      @ List.concat_map engine_tests fanouts)
  in
  (* Speedup table: full / incremental at each cardinality. *)
  let time_of prefix n =
    List.assoc_opt (Fmt.str "e9 %s:tuples=%06d" prefix n) rows
  in
  Fmt.pr "@.step-4 speedup (full / incremental):@.";
  Fmt.pr "%-10s %16s %16s %10s@." "tuples" "full" "incremental" "speedup";
  List.iter
    (fun fanout ->
      let db = Workloads.enrollment_db fanout in
      let n = Database.total_tuples db in
      match time_of "validate-full" n, time_of "validate-incremental" n with
      | Some f, Some i ->
          Fmt.pr "%-10d %13.1f us %13.3f us %9.0fx@." n (f /. 1e3) (i /. 1e3)
            (f /. i)
      | _ -> ())
    fanouts

(* --- E10: group commit vs one-at-a-time serving ----------------------- *)

let e10 () =
  section "E10: group commit vs one-at-a-time serving";
  let graph = Penguin.University.graph in
  let omega = Penguin.University.omega in
  let spec = Penguin.University.omega_translator in
  let max_batch = 32 in
  let db = Workloads.courses_db max_batch in
  let stage1 db r =
    match Vo_core.Engine.stage graph db omega spec r with
    | Ok s -> s
    | Error e -> failwith (Vo_core.Engine.stage_error_reason e)
  in
  let sequential ?validation db reqs =
    List.fold_left
      (fun db r ->
        let o = Vo_core.Engine.apply ?validation graph db omega spec r in
        match o.Vo_core.Engine.result with
        | Transaction.Committed db -> db
        | Transaction.Rolled_back { reason; _ } ->
            failwith (Fmt.str "sequential apply rejected: %s" reason))
      db reqs
  in
  (* A batch item is the pre-built request plus its retry function: a
     conflicting request that lost its group must be re-derived against
     the committed state (re-read the instance, re-apply the edit) —
     the OCC retry a {!Penguin.Session} rebase performs. *)
  let batch ~n ~colliding =
    List.init n (fun j ->
        let course = if j < colliding then 1 else j + 1 in
        ( Workloads.grade_change_request db ~course ~tag:j,
          fun db' -> Workloads.grade_change_request db' ~course ~tag:j ))
  in
  (* The serving loop: stage everything, partition into conflict-free
     groups, commit the first group, re-derive and re-stage the
     survivors, repeat. At conflict rate 0 this is stage-all plus one
     commit_group. *)
  let group_serve ?validation db items =
    let rec serve db staged =
      (* staged : (Engine.staged * retry) assoc, physical keys *)
      match Vo_core.Engine.plan_groups (List.map fst staged) with
      | [] -> db
      | grp :: rest -> (
          match Vo_core.Engine.commit_group ?validation graph db grp with
          | Error r -> failwith (Vo_core.Engine.group_rejection_reason r)
          | Ok (db, _) -> (
              match List.concat rest with
              | [] -> db
              | survivors ->
                  let retries = List.map (fun s -> List.assq s staged) survivors in
                  serve db
                    (List.map (fun retry -> stage1 db (retry db), retry) retries)))
    in
    serve db (List.map (fun (r, retry) -> stage1 db r, retry) items)
  in
  let sizes = if !quick then [ 8 ] else [ 1; 8; 32 ] in
  let seq_test n =
    let reqs = List.map fst (batch ~n ~colliding:0) in
    Test.make ~name:(Fmt.str "sequential:batch=%02d" n)
      (stage (fun () -> sequential db reqs))
  in
  let group_test n =
    let items = batch ~n ~colliding:0 in
    Test.make ~name:(Fmt.str "group:batch=%02d" n)
      (stage (fun () -> group_serve db items))
  in
  let commit_only n =
    let staged =
      List.map (fun (r, _) -> stage1 db r) (batch ~n ~colliding:0)
    in
    Test.make ~name:(Fmt.str "group-commit-only:batch=%02d" n)
      (stage (fun () ->
           match Vo_core.Engine.commit_group graph db staged with
           | Ok (db, _) -> db
           | Error r -> failwith (Vo_core.Engine.group_rejection_reason r)))
  in
  let conflict_test ~n ~colliding =
    let items = batch ~n ~colliding in
    Test.make
      ~name:
        (Fmt.str "group:batch=%02d,conflicts=%02d%%" n (100 * colliding / n))
      (stage (fun () -> group_serve db items))
  in
  let conflict_cases = if !quick then [ 8, 2 ] else [ 32, 8; 32, 16 ] in
  let rows =
    run_group "e10"
      (List.map seq_test sizes @ List.map group_test sizes
      @ List.map commit_only sizes
      @ List.map (fun (n, c) -> conflict_test ~n ~colliding:c) conflict_cases)
  in
  (* Speedup summary for the conflict-free batches. [sequential] is n
     full Engine.apply calls — translate, apply and validate inside the
     serialized section. [stage+commit] re-runs the whole pipeline from
     one snapshot (staging, i.e. translation, dominates and is paid
     either way). [commit] is the group commit of an already-staged
     batch: the serialized section of the session architecture, where
     staging happened at queue time — this is what group commit
     shrinks. *)
  Fmt.pr "@.group commit vs one-at-a-time (conflict-free):@.";
  Fmt.pr "%-8s %15s %15s %15s %10s@." "batch" "sequential" "stage+commit"
    "commit" "speedup";
  List.iter
    (fun n ->
      match
        ( List.assoc_opt (Fmt.str "e10 sequential:batch=%02d" n) rows,
          List.assoc_opt (Fmt.str "e10 group:batch=%02d" n) rows,
          List.assoc_opt (Fmt.str "e10 group-commit-only:batch=%02d" n) rows )
      with
      | Some s, Some g, Some c ->
          Fmt.pr "%-8d %12.1f us %12.1f us %12.1f us %9.2fx@." n (s /. 1e3)
            (g /. 1e3) (c /. 1e3) (s /. c)
      | _ -> ())
    sizes;
  (let acc_n = List.fold_left max 1 sizes in
   match
     ( List.assoc_opt (Fmt.str "e10 sequential:batch=%02d" acc_n) rows,
       List.assoc_opt (Fmt.str "e10 group-commit-only:batch=%02d" acc_n) rows )
   with
   | Some s, Some c when c < s ->
       Fmt.pr
         "@.acceptance: group commit of a conflict-free %d-request staged \
          batch (%.1f us) beats %d sequential Engine.apply calls (%.1f us): \
          %.2fx.@."
         acc_n (c /. 1e3) acc_n (s /. 1e3) (s /. c)
   | Some s, Some c ->
       Fmt.pr
         "@.ACCEPTANCE FAILED: group commit %.1f us vs sequential %.1f us@."
         (c /. 1e3) (s /. 1e3)
   | _ -> ());
  (* Paranoid-mode cross-check (acceptance), accept side: a merged-delta
     group commit must accept what sequential application accepts, and
     both must land on the same database. Paranoid validation
     additionally cross-checks the incremental checker against a full
     sweep inside each path, raising Divergence on any disagreement. *)
  let n = if !quick then 8 else 32 in
  let items = batch ~n ~colliding:0 in
  let seq_db =
    sequential ~validation:Vo_core.Global_validation.Paranoid db
      (List.map fst items)
  in
  let grp_db = group_serve ~validation:Vo_core.Global_validation.Paranoid db items in
  if not (Database.equal seq_db grp_db) then
    failwith "E10 cross-check: group commit diverges from sequential apply";
  (* Reject side: a batch whose last member violates the structural
     model (dropping a department every course references) must be
     rejected by the merged-delta pass with the same culprit sequential
     validation identifies. *)
  let bad_staged =
    let ops = [ Op.Delete ("DEPARTMENT", [ Value.Str "Computer Science" ]) ] in
    match Transaction.run_delta db ops with
    | Transaction.Rolled_back { reason; _ }, _ -> failwith reason
    | Transaction.Committed candidate, delta ->
        {
          Vo_core.Engine.request =
            Vo_core.Request.delete (Workloads.course_instance db 1);
          request_kind = "raw";
          object_name = "omega";
          ops;
          delta;
          reads = Delta.footprint delta;
          base_version = 0;
          base_db = db;
          candidate;
        }
  in
  let good = List.map (fun (r, _) -> stage1 db r) (batch ~n:4 ~colliding:0) in
  (match
     Vo_core.Engine.commit_group
       ~validation:Vo_core.Global_validation.Paranoid graph db
       (good @ [ bad_staged ])
   with
  | Ok _ -> failwith "E10 cross-check: invalid batch was accepted"
  | Error (Vo_core.Engine.Group_validation_failed { culprit = Some 4; _ }) -> ()
  | Error r ->
      failwith
        (Fmt.str "E10 cross-check: wrong rejection: %s"
           (Vo_core.Engine.group_rejection_reason r)));
  Fmt.pr
    "@.Paranoid cross-check: group commit of %d conflict-free requests \
     equals %d sequential applies (same final database, merged-delta \
     validation agrees with full sweep), and an invalid batch is \
     rejected with the culprit sequential replay identifies.@."
    n n

(* A bench's scratch directory and everything under it. *)
let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* --- E11: durable commit journal ------------------------------------- *)

let e11 () =
  section "E11: durable commit journal: append, replay, recover, rotate";
  let dir =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Fmt.str "penguin-bench-e11-%d" (Unix.getpid ()))
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  let or_fail = function
    | Ok v -> v
    | Error e -> failwith (Penguin.Error.to_string e)
  in
  let ws = Penguin.University.workspace () in
  let base = Penguin.Workspace.version ws in
  (* A representative single-commit record: one grade update, flipping
     between two values so any dense run of entries replays cleanly. *)
  let entry v =
    let new_g, old_g =
      if (v - base) mod 2 = 1 then "A-", "B+" else "B+", "A-"
    in
    let before =
      Tuple.make
        [ "course_id", Value.Str "CS345"; "pid", Value.Int 2; "grade", Value.Str old_g ]
    in
    let after = Tuple.set before "grade" (Value.Str new_g) in
    let d =
      Delta.record Delta.empty ~rel:"GRADES"
        ~key:[ Value.Str "CS345"; Value.Int 2 ]
        ~old_image:(Some before) ~new_image:(Some after)
    in
    {
      Penguin.Commit_log.version = v;
      kind = "bench edit";
      change = Penguin.Commit_log.Delta d;
    }
  in
  let fill t n =
    or_fail (Penguin.Journal.initialize t ~base);
    for i = 1 to n do
      ignore
        (or_fail (Penguin.Journal.append t ~sync:false [ entry (base + i) ]))
    done
  in
  let lengths = if !quick then [ 16 ] else [ 16; 64; 256 ] in
  let append_t = Penguin.Journal.create (Filename.concat dir "append.journal") in
  or_fail (Penguin.Journal.initialize append_t ~base);
  let append_test ~sync name =
    Test.make ~name
      (stage (fun () ->
           or_fail (Penguin.Journal.append append_t ~sync [ entry (base + 1) ])))
  in
  let replay_test n =
    let t = Penguin.Journal.create (Filename.concat dir (Fmt.str "replay-%d.journal" n)) in
    fill t n;
    Test.make ~name:(Fmt.str "replay:len=%03d" n)
      (stage (fun () ->
           match Penguin.Journal.replay t with
           | Ok (Some r) -> r
           | Ok None -> failwith "journal missing"
           | Error e -> failwith (Penguin.Error.to_string e)))
  in
  (* Full recovery: snapshot load + replay + delta application + the
     incremental integrity cross-check, per journal length. *)
  let recover_test n =
    let store = Filename.concat dir (Fmt.str "store-%d.pgn" n) in
    or_fail (Penguin.Store.save_file ws store);
    fill (Penguin.Journal.create (Penguin.Journal.journal_path store)) n;
    Test.make ~name:(Fmt.str "open-store:len=%03d" n)
      (stage (fun () -> or_fail (Penguin.Recovery.open_store store)))
  in
  let snapshot = Penguin.Store.save ws in
  let rotate_t = Penguin.Journal.create (Filename.concat dir "rotate.journal") in
  or_fail (Penguin.Journal.initialize rotate_t ~base);
  let rotate_test =
    Test.make ~name:"rotate:university"
      (stage (fun () ->
           or_fail
             (Penguin.Journal.rotate rotate_t
                ~snapshot_path:(Filename.concat dir "rotate.pgn")
                ~snapshot ~base)))
  in
  let rows =
    run_group "e11"
      (append_test ~sync:false "append:sync=off"
      :: append_test ~sync:true "append:sync=on"
      :: rotate_test
      :: (List.map replay_test lengths @ List.map recover_test lengths))
  in
  (match
     ( List.assoc_opt "e11 append:sync=on" rows,
       List.assoc_opt "e11 append:sync=off" rows )
   with
  | Some on, Some off ->
      Fmt.pr
        "@.durability point: fsync'd append %.1f us vs buffered %.1f us \
         (%.1fx) — the price of surviving a crash.@."
        (on /. 1e3) (off /. 1e3) (on /. off)
  | _ -> ());
  let len = List.fold_left max 1 lengths in
  (match
     ( List.assoc_opt (Fmt.str "e11 replay:len=%03d" len) rows,
       List.assoc_opt (Fmt.str "e11 open-store:len=%03d" len) rows )
   with
  | Some r, Some o ->
      Fmt.pr
        "recovery at %d records: parse %.1f us, full open-store (apply + \
         integrity cross-check) %.1f us (%.2f us/record).@."
        len (r /. 1e3) (o /. 1e3)
        (o /. 1e3 /. float_of_int len)
  | _ -> ());
  (* Worst-case recovery under the rotation rule, on the serve-path
     store shape (16 grades per course): an open with an empty journal,
     and with a journal just below its rotation point — single-grade
     commits through the appender until one more record would bring
     their bytes to the snapshot's size. The appends skip the fsync,
     which recovery never sees. *)
  let unsynced = { Penguin.Fsio.default with Penguin.Fsio.sync = (fun _ -> Ok ()) } in
  let open_store_rows n =
    let ws = Workloads.graded_workspace ~courses:n ~fanout:16 in
    let store journal = Filename.concat dir (Fmt.str "graded-%d-%s.pgn" n journal) in
    let empty = store "empty" and full = store "full" in
    List.iter (fun s -> or_fail (Penguin.Store.save_file ws s)) [ empty; full ];
    let ws0, report = or_fail (Penguin.Recovery.open_store full) in
    let snapshot_bytes = report.Penguin.Recovery.snapshot_bytes in
    ignore (or_fail (Penguin.Recovery.Appender.create ~store:empty ws0));
    let app =
      or_fail
        (Penguin.Recovery.Appender.create ~io:unsynced ~snapshot_bytes ~store:full ws0)
    in
    let rec fill ws i records =
      let stmt =
        Workloads.grade_stmt ~course:(i mod n) ~slot:(i / n mod 16)
          ~grade:(Fmt.str "G%d" i)
      in
      let ws', _ =
        or_fail
          (Result.bind
             (Penguin.Session.queue_stmt (Penguin.Session.begin_ ws) "omega" stmt)
             (Penguin.Session.commit ws))
      in
      let since = Penguin.Workspace.version ws in
      let record =
        Penguin.Journal.frame
          (Penguin.Journal.record_payload
             (Penguin.Commit_log.entries_since ws'.Penguin.Workspace.log since))
      in
      if records + String.length record >= snapshot_bytes then records
      else (
        or_fail (Penguin.Recovery.Appender.write app ~since ws');
        fill ws' (i + 1) (records + String.length record))
    in
    let records = fill ws0 0 0 in
    Fmt.pr "open-store at %d courses: a %d KB snapshot, %d KB of journal records@."
      n (snapshot_bytes / 1024) (records / 1024);
    List.map
      (fun (journal, store) ->
        Test.make ~name:(Fmt.str "open-store:courses=%d,journal=%s" n journal)
          (stage (fun () -> or_fail (Penguin.Recovery.open_store store))))
      [ "empty", empty; "full", full ]
  in
  (* A ratio is judged in full mode only: --quick's measurement quota is
     too small to hold one on a shared host. *)
  let judge ratio ~bound line =
    if !quick then Fmt.pr "%s (%.2fx; not judged in --quick)@." line ratio
    else
      Fmt.pr "%s %s (%.2fx, %s %.0fx)@."
        (if ratio <= bound then "acceptance:" else "ACCEPTANCE FAILED:")
        line ratio
        (if ratio <= bound then "<=" else ">")
        bound
  in
  let courses = if !quick then [ 50; 500 ] else [ 50; 500; 2000 ] in
  let rows = run_group "e11.open-store" (List.concat_map open_store_rows courses) in
  List.iter
    (fun n ->
      let at journal =
        List.assoc_opt
          (Fmt.str "e11.open-store open-store:courses=%d,journal=%s" n journal)
          rows
      in
      match at "empty", at "full" with
      | Some empty, Some full ->
          judge (full /. empty) ~bound:2.
            (Fmt.str
               "open-store at %d courses, journal just below its rotation point: \
                %.2f ms against the empty journal's %.2f ms"
               n (full /. 1e6) (empty /. 1e6))
      | _ -> ())
    courses;
  (* Reading a snapshot against writing it, in memory: the same document
     both ways. *)
  let load_save_rows n =
    let ws = Workloads.graded_workspace ~courses:n ~fanout:16 in
    let doc = Penguin.Store.save ws in
    [ Test.make ~name:(Fmt.str "save:courses=%d" n)
        (stage (fun () -> Penguin.Store.save ws));
      Test.make ~name:(Fmt.str "load:courses=%d" n)
        (stage (fun () ->
             match Penguin.Store.load doc with
             | Ok ws -> ws
             | Error e -> failwith e)) ]
  in
  let rows = run_group "e11.load-save" (List.concat_map load_save_rows courses) in
  List.iter
    (fun n ->
      let at op = List.assoc_opt (Fmt.str "e11.load-save %s:courses=%d" op n) rows in
      match at "save", at "load" with
      | Some save, Some load ->
          judge (load /. save) ~bound:2.
            (Fmt.str "Store.load at %d courses: %.2f ms against Store.save's %.2f ms" n
               (load /. 1e6) (save /. 1e6))
      | _ -> ())
    courses;
  remove_tree dir

(* --- E12: observability overhead -------------------------------------- *)

let e12 () =
  section "E12: observability overhead on the commit path";
  let graph = Penguin.University.graph in
  let omega = Penguin.University.omega in
  let spec = Penguin.University.omega_translator in
  let n = 8 in
  let db = Workloads.courses_db n in
  let staged =
    List.map
      (fun r ->
        match Vo_core.Engine.stage graph db omega spec r with
        | Ok s -> s
        | Error e -> failwith (Vo_core.Engine.stage_error_reason e))
      (List.init n (fun j ->
           Workloads.grade_change_request db ~course:(j + 1) ~tag:j))
  in
  let commit () =
    match Vo_core.Engine.commit_group graph db staged with
    | Ok (db, _) -> db
    | Error r -> failwith (Vo_core.Engine.group_rejection_reason r)
  in
  (* Each test re-establishes its obs configuration on every run: the
     mode switch is two stores, negligible against the us-scale path,
     and it keeps the measurement correct whatever order bechamel runs
     the tests in. The sink is a closure that drops each span, so the
     figures price the region call, not a sink's storage. *)
  let with_mode ~metrics ~trace f () =
    if metrics then Obs.Metrics.enable () else Obs.Metrics.disable ();
    Obs.Trace.set_sink (if trace then Some ignore else None);
    f ()
  in
  (* Primitive costs, amortized over 1000 iterations so the mode-switch
     wrapper disappears from the per-op figure. *)
  let c = Obs.Metrics.counter "e12.counter" in
  let h = Obs.Metrics.histogram "e12.region_ns" in
  let x1000 f () = for _ = 1 to 1000 do f () done in
  let region () = Obs.Trace.with_span h ignore in
  let rows =
    run_group "e12"
      [
        Test.make ~name:"commit:obs-off"
          (stage (with_mode ~metrics:false ~trace:false commit));
        Test.make ~name:"commit:metrics-on"
          (stage (with_mode ~metrics:true ~trace:false commit));
        Test.make ~name:"commit:metrics+trace"
          (stage (with_mode ~metrics:true ~trace:true commit));
        Test.make ~name:"counter-incr-x1000:disabled"
          (stage
             (with_mode ~metrics:false ~trace:false
                (x1000 (fun () -> Obs.Metrics.Counter.incr c))));
        Test.make ~name:"counter-incr-x1000:enabled"
          (stage
             (with_mode ~metrics:true ~trace:false
                (x1000 (fun () -> Obs.Metrics.Counter.incr c))));
        Test.make ~name:"region-x1000:off"
          (stage (with_mode ~metrics:false ~trace:false (x1000 region)));
        Test.make ~name:"region-x1000:metrics"
          (stage (with_mode ~metrics:true ~trace:false (x1000 region)));
        Test.make ~name:"region-x1000:metrics+sink"
          (stage (with_mode ~metrics:true ~trace:true (x1000 region)));
      ]
  in
  (* The regions one commit enters, counted off a sink. *)
  let regions =
    let n = ref 0 in
    Obs.Trace.set_sink (Some (fun _ -> incr n));
    ignore (commit ());
    !n
  in
  (* e12 must not decide the obs configuration of whatever runs next. *)
  Obs.Metrics.enable ();
  Obs.Trace.set_sink None;
  let t name = List.assoc_opt ("e12 " ^ name) rows in
  (match t "commit:obs-off", t "commit:metrics-on", t "commit:metrics+trace" with
  | Some off, Some on, Some tr ->
      Fmt.pr
        "@.measured commit path (batch %d): obs off %.1f us, metrics on \
         %.1f us (%+.1f%%), metrics+trace %.1f us (%+.1f%%).@."
        n (off /. 1e3) (on /. 1e3)
        (100. *. (on -. off) /. off)
        (tr /. 1e3)
        (100. *. (tr -. off) /. off)
  | _ -> ());
  (match
     t "region-x1000:off", t "region-x1000:metrics", t "region-x1000:metrics+sink"
   with
  | Some off, Some on, Some sink ->
      Fmt.pr
        "region call: %.2f ns off, %.2f ns with metrics, %.2f ns with \
         metrics and a sink.@."
        (off /. 1000.) (on /. 1000.) (sink /. 1000.)
  | _ -> ());
  (* The acceptance figure is derived from the primitive branch costs
     rather than the difference of two noisy commit measurements: count
     the instrumentation touches one disabled-mode commit pays and
     price them at the measured disabled per-op cost. A batch of n
     touches [regions] regions (counted above), 2 result counters, and
     ~3 pruned-connection-check counter touches per update inside
     check_delta. *)
  match
    t "commit:obs-off", t "counter-incr-x1000:disabled", t "region-x1000:off"
  with
  | Some off, Some c1000, Some r1000 ->
      let branch = c1000 /. 1000. in
      let region = r1000 /. 1000. in
      let est =
        (float_of_int (2 + (3 * n)) *. branch)
        +. (float_of_int regions *. region)
      in
      let pct = 100. *. est /. off in
      if pct < 5. then
        Fmt.pr
          "acceptance: %d region(s) and ~%d counter touches per commit cost \
           ~%.0f ns disabled, of a %.1f us commit = %.2f%% (< 5%%).@."
          regions (2 + (3 * n)) est (off /. 1e3) pct
      else
        Fmt.pr
          "ACCEPTANCE FAILED: disabled instrumentation estimated at %.2f%% \
           of the commit path (>= 5%%)@."
          pct
  | _ -> ()

(* --- E13: resilience overhead on the fault-free commit path ----------- *)

let e13 () =
  section "E13: resilience overhead on the fault-free commit path";
  let module R = Penguin.Resilience in
  let graph = Penguin.University.graph in
  let omega = Penguin.University.omega in
  let spec = Penguin.University.omega_translator in
  let n = 8 in
  let db = Workloads.courses_db n in
  let staged =
    List.map
      (fun r ->
        match Vo_core.Engine.stage graph db omega spec r with
        | Ok s -> s
        | Error e -> failwith (Vo_core.Engine.stage_error_reason e))
      (List.init n (fun j ->
           Workloads.grade_change_request db ~course:(j + 1) ~tag:j))
  in
  let commit () =
    match Vo_core.Engine.commit_group graph db staged with
    | Ok (db, _) -> Ok db
    | Error r ->
        Error (Penguin.Error.invalid (Vo_core.Engine.group_rejection_reason r))
  in
  let or_raise = function
    | Ok v -> v
    | Error e -> failwith (Penguin.Error.to_string e)
  in
  (* What serving actually pays per commit when nothing is wrong: the
     retry wrapper takes the happy path (one attempt, no sleep) and the
     deadline is a clock read and a compare. *)
  let wrapped () =
    let deadline_ns = Obs.Metrics.now_ns () +. 30e9 in
    or_raise (R.retry ~deadline_ns ~label:"e13" commit)
  in
  let breaker = R.Breaker.create ~label:"e13" () in
  let x1000 f () = for _ = 1 to 1000 do f () done in
  let rows =
    run_group "e13"
      [
        Test.make ~name:"commit:bare" (stage (fun () -> or_raise (commit ())));
        Test.make ~name:"commit:retry-wrapped" (stage wrapped);
        Test.make ~name:"retry-ok-x1000"
          (stage (x1000 (fun () -> ignore (R.retry (fun () -> Ok ())))));
        Test.make ~name:"retry-ok-deadline-x1000"
          (stage
             (x1000 (fun () ->
                  ignore (R.retry ~deadline_ns:max_float (fun () -> Ok ())))));
        Test.make ~name:"breaker-protect-ok-x1000"
          (stage
             (x1000 (fun () -> ignore (R.Breaker.protect breaker (fun () -> Ok ())))));
        Test.make ~name:"backoff-schedule"
          (stage (fun () -> R.Policy.schedule R.Policy.default));
      ]
  in
  let t name = List.assoc_opt ("e13 " ^ name) rows in
  (match t "commit:bare", t "commit:retry-wrapped" with
  | Some bare, Some wrapped ->
      Fmt.pr
        "@.measured commit path (batch %d): bare %.1f us, retry+deadline \
         wrapped %.1f us (%+.1f%%).@."
        n (bare /. 1e3) (wrapped /. 1e3)
        (100. *. (wrapped -. bare) /. bare)
  | _ -> ());
  (* The acceptance figure is derived from the amortized wrapper cost
     rather than the difference of two noisy commit measurements (the
     same approach as E12): one fault-free commit pays exactly one
     deadline-carrying retry wrap. *)
  match t "commit:bare", t "retry-ok-deadline-x1000" with
  | Some bare, Some w1000 ->
      let per_wrap = w1000 /. 1000. in
      let pct = 100. *. per_wrap /. bare in
      if pct < 2. then
        Fmt.pr
          "acceptance: the fault-free retry/deadline wrapper costs %.0f ns \
           of a %.1f us batch-%d commit = %.2f%% (< 2%%).@."
          per_wrap (bare /. 1e3) n pct
      else
        Fmt.pr
          "ACCEPTANCE FAILED: retry/deadline wrapper at %.2f%% of the \
           batch-%d commit path (>= 2%%)@."
          pct n
  | _ -> ()

(* --- ablation: op-list translation vs direct application ------------- *)

(* --- E14: materialized view-object cache ----------------------------- *)

let e14 () =
  section "E14: materialized view-object cache (DESIGN.md section 5.6)";
  let omega = Penguin.University.omega in
  let mk_cache fanout =
    let db = Workloads.enrollment_db fanout in
    let cache = Cache.create Penguin.University.graph ~db in
    Cache.register cache omega;
    Cache.warm cache;
    db, cache
  in
  let db256, cache256 = mk_cache 256 in
  let db16, cache16 = mk_cache 16 in
  (* A forward/backward pair of single-tuple grade deltas: each run
     patches the cache twice and lands back on the state it started
     from, so one patch costs half the reported time. *)
  let patch_roundtrip cache db course pid =
    let r = Database.relation_exn db "GRADES" in
    let t0 =
      match
        Relation.lookup_eq r
          [ "pid", Value.Int pid; "course_id", Value.Str course ]
      with
      | [ t ] -> t
      | l -> failwith (Fmt.str "expected 1 grade, got %d" (List.length l))
    in
    let t1 = Tuple.set t0 "grade" (Value.Str "Z+") in
    let key = Relation.key_of r t0 in
    let fwd =
      Delta.record Delta.empty ~rel:"GRADES" ~key ~old_image:(Some t0)
        ~new_image:(Some t1)
    in
    let back =
      Delta.record Delta.empty ~rel:"GRADES" ~key ~old_image:(Some t1)
        ~new_image:(Some t0)
    in
    let db' =
      match Database.apply_delta db fwd with
      | Ok db -> db
      | Error e -> failwith (Database.error_to_string e)
    in
    fun () ->
      Cache.apply_delta cache ~post:db' fwd;
      Cache.apply_delta cache ~post:db back
  in
  (* A point read by pivot key is a lookup: served through the cache
     (parse included, as the server pays it) or instantiated fresh, it
     should cost the same at 200 and at 2000 courses. *)
  let sizes = [ 200; 2000 ] in
  let q = "course_id = 'BENCH100'" in
  let cond =
    match Oql.parse omega q with Ok c -> c | Error e -> failwith e
  in
  let point_reads n =
    let db = Workloads.courses_db n in
    let cache = Cache.create Penguin.University.graph ~db in
    Cache.register cache omega;
    Cache.warm cache;
    [
      Test.make ~name:(Fmt.str "cache-oql,courses=%d" n)
        (stage (fun () -> Cache.oql cache "omega" q));
      Test.make ~name:(Fmt.str "vo-query-run,courses=%d" n)
        (stage (fun () -> Vo_query.run db omega cond));
    ]
  in
  ignore
    (run_group "e14"
       [
         (* cold = what every read pays without the cache *)
         Test.make ~name:"cold:instantiate,fanout=256"
           (stage (fun () -> Instantiate.instantiate db256 omega));
         Test.make ~name:"warm-hit:fanout=256"
           (stage (fun () -> Cache.instances cache256 "omega"));
         (* patching the big entry costs its own fanout... *)
         Test.make ~name:"patch-roundtrip:bench1,fanout=256"
           (stage (patch_roundtrip cache256 db256 "BENCH1" 1001));
         (* ...while patching a small entry is flat in database size:
            CS345 keeps its 2 grades as BENCH1's enrollment inflates
            GRADES/STUDENT 16x between these two runs. *)
         Test.make ~name:"patch-roundtrip:cs345,dbsize=16"
           (stage (patch_roundtrip cache16 db16 "CS345" 2));
         Test.make ~name:"patch-roundtrip:cs345,dbsize=256"
           (stage (patch_roundtrip cache256 db256 "CS345" 2));
       ]);
  (* Maintenance against a cold build of the same entry, over BENCH1's
     fanout: a grade commit rebuilds the one course it reaches, so half
     a round trip should track one [of_pivot_tuple]. Its own group, so
     the rows above keep their median. *)
  let fanouts = [ 1; 4; 16; 64; 256 ] in
  let maintain g =
    let db, cache = mk_cache g in
    let bench1 =
      Option.get
        (Relation.lookup (Database.relation_exn db "COURSES")
           [ Value.Str "BENCH1" ])
    in
    [
      Test.make ~name:(Fmt.str "patch-roundtrip:bench1,fanout=%d" g)
        (stage (patch_roundtrip cache db "BENCH1" 1001));
      Test.make ~name:(Fmt.str "cold:of_pivot_tuple,fanout=%d" g)
        (stage (fun () -> Instantiate.of_pivot_tuple db omega bench1));
    ]
  in
  let rows = run_group "e14.maintain" (List.concat_map maintain fanouts) in
  List.iter
    (fun g ->
      let at what =
        List.assoc_opt (Fmt.str "e14.maintain %s,fanout=%d" what g) rows
      in
      match at "patch-roundtrip:bench1", at "cold:of_pivot_tuple" with
      | Some rt, Some cold ->
          Fmt.pr
            "maintain fanout=%d: one patch %.2f us, %.2fx the %.2f us cold \
             build@."
            g (rt /. 2e3) (rt /. 2. /. cold) (cold /. 1e3)
      | _ -> ())
    fanouts;
  (* [what] at [n] courses within 1.5x of [n0] courses. *)
  let acceptance what (n0, t0) (n, t) =
    let ratio = t /. t0 in
    Fmt.pr "%s %s at %d courses: %.2f us, %.2fx the %.2f us at %d (%s 1.5x)@."
      (if ratio <= 1.5 then "acceptance:" else "ACCEPTANCE FAILED:")
      what n (t /. 1e3) ratio (t0 /. 1e3) n0
      (if ratio <= 1.5 then "<=" else ">")
  in
  (* Its own group, built after the one above: the 2000-course state
     would otherwise sit in the heap while those rows are timed. *)
  let rows = run_group "e14.point-read" (List.concat_map point_reads sizes) in
  List.iter
    (fun path ->
      let at n =
        List.assoc_opt (Fmt.str "e14.point-read %s,courses=%d" path n) rows
      in
      match at 200, at 2000 with
      | Some small, Some large ->
          acceptance (path ^ " point read") (200, small) (2000, large)
      | _ -> ())
    [ "cache-oql"; "vo-query-run" ];
  (* A single-grade statement, staged and committed as the server does
     it, on the serve-path benchmark's store shape (16 grades per
     course): with every point access a lookup, its cost does not grow
     with the store. Built last, for the same reason as above. *)
  let point_stmt n =
    let ws = Workloads.graded_workspace ~courses:n ~fanout:16 in
    let stmt = Workloads.grade_stmt ~course:(n / 2) ~slot:3 ~grade:"Z" in
    Test.make ~name:(Fmt.str "queue+commit,courses=%d" n)
      (stage (fun () ->
           Result.bind
             (Penguin.Session.queue_stmt (Penguin.Session.begin_ ws) "omega" stmt)
             (Penguin.Session.commit ws)))
  in
  let rows = run_group "e14.point-stmt" (List.map point_stmt [ 50; 2000 ]) in
  let at n = List.assoc_opt (Fmt.str "e14.point-stmt queue+commit,courses=%d" n) rows in
  match at 50, at 2000 with
  | Some small, Some large ->
      acceptance "single-grade statement" (50, small) (2000, large)
  | _ -> ()

let ablation () =
  section "Ablation: translate / apply split (DESIGN.md section 5.1)";
  let g = Penguin.University.graph in
  let omega = Penguin.University.omega in
  let db = Penguin.University.seeded_db () in
  let spec = Penguin.University.omega_translator in
  let old_i = Penguin.University.cs345_instance db in
  let new_i = Penguin.University.ees345_replacement old_i in
  let request = Vo_core.Request.replace ~old_instance:old_i ~new_instance:new_i in
  let ops =
    match Vo_core.Engine.translate g db omega spec request with
    | Ok ops -> ops
    | Error e -> failwith e
  in
  ignore
    (run_group "ablation"
       [
         Test.make ~name:"translate-only" (stage (fun () ->
             Vo_core.Engine.translate g db omega spec request));
         Test.make ~name:"apply-only" (stage (fun () -> Transaction.run db ops));
         Test.make ~name:"consistency-check-only"
           (stage (fun () -> Structural.Integrity.check g db));
         Test.make ~name:"full-engine" (stage (fun () ->
             Vo_core.Engine.apply g db omega spec request));
       ])

(* --- surface layers: OQL, the update language, persistence ----------- *)

let surfaces () =
  section "Surface layers: query language, update language, persistence";
  (* An update statement is one session: staged, then committed whole. *)
  let commit_stmt ws stmt =
    Result.bind
      (Penguin.Session.queue_stmt (Penguin.Session.begin_ ws) "omega" stmt)
      (Penguin.Session.commit ws)
  in
  let omega = Penguin.University.omega in
  let db = Penguin.University.seeded_db () in
  let ws = Penguin.University.workspace () in
  let query_text = "level = 'grad' and count(STUDENT#2) < 5" in
  let saved = Penguin.Store.save ws in
  let saved_defs = Penguin.Store.save ~include_data:false ws in
  Fmt.pr "@.workspace document: %d bytes with data, %d definition-only@."
    (String.length saved) (String.length saved_defs);
  ignore
    (run_group "surfaces"
       [
         Test.make ~name:"oql:parse" (stage (fun () -> Oql.parse omega query_text));
         Test.make ~name:"oql:parse+run" (stage (fun () -> Oql.run db omega query_text));
         Test.make ~name:"upql:grade-change"
           (stage (fun () ->
                commit_stmt ws
                  "set GRADES[pid = 1] grade = 'A+' where course_id = 'CS345'"));
         Test.make ~name:"upql:batch-delete"
           (stage (fun () -> commit_stmt ws "delete where level = 'undergrad'"));
         Test.make ~name:"store:save" (stage (fun () -> Penguin.Store.save ws));
         Test.make ~name:"store:save-definitions-only"
           (stage (fun () -> Penguin.Store.save ~include_data:false ws));
         Test.make ~name:"store:load" (stage (fun () -> Penguin.Store.load saved));
         Test.make ~name:"json:figure4-instance"
           (stage
              (let i = Penguin.University.cs345_instance db in
               fun () -> Penguin.Json_export.instance omega i));
         Test.make ~name:"sql:group-by"
           (stage (fun () ->
                Sql.run db
                  "SELECT dept_name, count(*) AS n FROM COURSES GROUP BY \
                   dept_name ORDER BY n DESC"));
       ])

(* --- E16: journal-shipping replication --------------------------------- *)

let e16 () =
  section "E16: journal-shipping replication (DESIGN.md section 5.8)";
  let dir =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Fmt.str "penguin-bench-e16-%d" (Unix.getpid ()))
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  let or_fail = function
    | Ok v -> v
    | Error e -> failwith (Penguin.Error.to_string e)
  in
  let io = Penguin.Fsio.default in
  let rm p = match io.Penguin.Fsio.remove p with Ok () | Error _ -> () in
  let ws = Penguin.University.workspace () in
  let base = Penguin.Workspace.version ws in
  (* The same representative commit record E11 journals: one grade
     update, flipping between two values so dense runs replay cleanly —
     here it must also pass the replica's validate-before-append. *)
  let entry v =
    let new_g, old_g =
      if (v - base) mod 2 = 1 then "A-", "B+" else "B+", "A-"
    in
    let before =
      Tuple.make
        [ "course_id", Value.Str "CS345"; "pid", Value.Int 2;
          "grade", Value.Str old_g ]
    in
    let after = Tuple.set before "grade" (Value.Str new_g) in
    let d =
      Delta.record Delta.empty ~rel:"GRADES"
        ~key:[ Value.Str "CS345"; Value.Int 2 ]
        ~old_image:(Some before) ~new_image:(Some after)
    in
    {
      Penguin.Commit_log.version = v;
      kind = "bench edit";
      change = Penguin.Commit_log.Delta d;
    }
  in
  let make_leader n =
    let store = Filename.concat dir (Fmt.str "leader-%d.pgn" n) in
    or_fail (Penguin.Store.save_file ws store);
    let t = Penguin.Journal.create (Penguin.Journal.journal_path store) in
    or_fail (Penguin.Journal.initialize t ~base);
    for i = 1 to n do
      ignore
        (or_fail (Penguin.Journal.append t ~sync:false [ entry (base + i) ]))
    done;
    store
  in
  let lengths = if !quick then [ 16 ] else [ 16; 64; 256 ] in
  (* Catch-up: bootstrap a fresh follower from the leader snapshot and
     tail the whole journal through verify → validate → own-journal →
     cache sync. The follower's files are deleted each run so every
     iteration pays the full cold catch-up. *)
  let tail_test n =
    let leader = make_leader n in
    let target = Filename.concat dir (Fmt.str "tail-%d.pgn" n) in
    Test.make ~name:(Fmt.str "catch-up:len=%03d" n)
      (stage (fun () ->
           rm target;
           rm (Penguin.Journal.journal_path target);
           let r =
             or_fail
               (Penguin.Replica.create
                  ~feed:(Penguin.Replica.file_feed leader)
                  ~target ())
           in
           or_fail (Penguin.Replica.poll_until_idle r)))
  in
  ignore (run_group "replica.tail" (List.map tail_test lengths));
  (* Follower reads vs leader reads, both through a warm view-object
     cache — the acceptance gate: a follower read within 2x of the
     leader's. *)
  let leader = make_leader 8 in
  let lws, _ = or_fail (Penguin.Recovery.open_store leader) in
  let lcache = Penguin.Workspace.attach_cache lws in
  let condition = "course_id = 'CS345'" in
  let read_leader () =
    match Viewobject.Cache.oql lcache "omega" condition with
    | Ok is -> is
    | Error e -> failwith e
  in
  let follower_target = Filename.concat dir "read-follower.pgn" in
  let repl =
    or_fail
      (Penguin.Replica.create
         ~feed:(Penguin.Replica.file_feed leader)
         ~target:follower_target ())
  in
  let _ = or_fail (Penguin.Replica.poll_until_idle repl) in
  let read_follower () =
    match Penguin.Replica.oql repl "omega" condition with
    | Ok is -> is
    | Error e -> failwith e
  in
  ignore (read_leader ());
  ignore (read_follower ());
  let rows =
    run_group "replica.read"
      [
        Test.make ~name:"leader:oql-warm" (stage read_leader);
        Test.make ~name:"follower:oql-warm" (stage read_follower);
      ]
  in
  (match
     ( List.assoc_opt "replica.read leader:oql-warm" rows,
       List.assoc_opt "replica.read follower:oql-warm" rows )
   with
  | Some l, Some f when Float.is_finite l && Float.is_finite f ->
      Fmt.pr
        "@.E16 acceptance: leader read %.2f us, follower read %.2f us — \
         %.2fx (target <= 2x) %s@."
        (l /. 1e3) (f /. 1e3) (f /. l)
        (if f <= 2. *. l then "PASS" else "FAIL")
  | _ -> ());
  (* Failover: restore the caught-up follower's files and promote —
     repair-open from the last durable record, rotate into a fresh
     snapshot at the next epoch, serve a first read. What a failover
     actually costs, end to end. *)
  let snap_bytes =
    match or_fail (io.Penguin.Fsio.read follower_target) with
    | Some c -> c
    | None -> failwith "E16: follower snapshot missing"
  in
  let jnl_bytes =
    match
      or_fail
        (io.Penguin.Fsio.read (Penguin.Journal.journal_path follower_target))
    with
    | Some c -> c
    | None -> failwith "E16: follower journal missing"
  in
  let scratch = Filename.concat dir "failover.pgn" in
  let failover_test =
    Test.make ~name:"promote+first-read"
      (stage (fun () ->
           or_fail (Penguin.Fsio.atomic_write io ~path:scratch snap_bytes);
           or_fail
             (io.Penguin.Fsio.write
                ~path:(Penguin.Journal.journal_path scratch)
                ~append:false jnl_bytes);
           let pws, _epoch = or_fail (Penguin.Replica.promote_store scratch) in
           let cache = Penguin.Workspace.attach_cache pws in
           match Viewobject.Cache.oql cache "omega" condition with
           | Ok is -> is
           | Error e -> failwith e))
  in
  ignore (run_group "replica.failover" [ failover_test ]);
  remove_tree dir

let () =
  parse_argv ();
  (* Metrics stay on for the whole run (the --json document carries the
     registry; E12 prices the cost) — E12 toggles them locally. *)
  Obs.Metrics.enable ();
  Fmt.pr "PENGUIN benchmark harness — one experiment per paper artifact@.";
  Fmt.pr "(see DESIGN.md and EXPERIMENTS.md for the index)@.";
  want "e1" e1;
  want "e2_e3" e2_e3;
  want "e4" e4;
  want "e5" e5;
  want "e6" e6;
  want "e7" e7;
  want "e8" e8;
  want "e9" e9;
  want "e10" e10;
  want "e11" e11;
  want "e12" e12;
  want "e13" e13;
  want "e14" e14;
  want "e16" e16;
  want "ablation" ablation;
  want "surfaces" surfaces;
  Option.iter write_json !json_path;
  Fmt.pr "@.all benchmarks complete.@."
