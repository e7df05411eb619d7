(* Tests for Memo: memoized interpretation must be indistinguishable from
   direct interpretation, distinct configurations must not collide, step
   budgets stay out of run and task cache keys, the hit/miss counters
   must be observable, and one flow run must actually reuse
   interpretations. *)

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let nbody_program = App.program Nbody.app

let small_config =
  { Machine.default_config with
    overrides = App.machine_overrides [ ("N", 8); ("STEPS", 1) ] }

let sorted_stats r =
  ( List.sort compare r.Machine.loop_stats,
    List.sort compare r.Machine.region_stats,
    List.sort compare r.Machine.aliased_funcs )

let test_memo_equals_direct () =
  Memo.reset ();
  let config = Memo.analysis_config ~config:small_config () in
  let direct = Machine.run ~config nbody_program in
  let first = Memo.run ~config nbody_program in
  let second = Memo.run ~config nbody_program in
  check "miss equals direct run" true (first = direct);
  check "hit equals direct run" true (second = direct);
  let s = Memo.stats () in
  checki "one miss" 1 s.Memo.misses;
  checki "one hit" 1 s.Memo.hits

let test_distinct_configs_do_not_collide () =
  Memo.reset ();
  let base = Memo.analysis_config ~config:small_config () in
  let r8 = Memo.run ~config:base nbody_program in
  let r16 =
    Memo.run
      ~config:{ base with overrides = App.machine_overrides [ ("N", 16); ("STEPS", 1) ] }
      nbody_program
  in
  let r_seed = Memo.run ~config:{ base with Machine.seed = 7 } nbody_program in
  let r_plain = Memo.run ~config:{ base with Machine.profile_loops = false } nbody_program in
  ignore r_seed;
  let s = Memo.stats () in
  checki "four distinct entries" 4 s.Memo.misses;
  checki "no spurious hits" 0 s.Memo.hits;
  check "different workloads differ" true (r8.Machine.output <> r16.Machine.output);
  check "profiling flag respected" true (r_plain.Machine.loop_stats = []);
  check "profiled run has loop stats" true (r8.Machine.loop_stats <> [])

let test_renumbered_program_hits () =
  (* id-refreshed copies of a program are the same program to the
     interpreter; the memo must serve them from one entry, translating
     the statistics back into the requester's statement ids *)
  Memo.reset ();
  let config = Memo.analysis_config ~config:small_config () in
  let renumbered = Ast.renumber nbody_program in
  let r1 = Memo.run ~config nbody_program in
  let r2 = Memo.run ~config renumbered in
  let s = Memo.stats () in
  checki "second request is a hit" 1 s.Memo.hits;
  checki "single interpretation" 1 s.Memo.misses;
  check "same observable behaviour" true
    (r1.Machine.output = r2.Machine.output && r1.Machine.ret = r2.Machine.ret);
  (* translated statistics must match a direct run of the renumbered copy *)
  let direct = Machine.run ~config renumbered in
  check "translated stats equal direct stats" true
    (sorted_stats r2 = sorted_stats direct);
  check "ids were actually translated" true
    (List.sort compare (List.map fst r1.Machine.loop_stats)
    <> List.sort compare (List.map fst r2.Machine.loop_stats))

let test_exceptions_not_cached () =
  Memo.reset ();
  let config = { small_config with Machine.max_steps = 10 } in
  let attempt () =
    match Memo.run ~config nbody_program with
    | _ -> Alcotest.fail "expected step limit"
    | exception Machine.Step_limit_exceeded -> ()
  in
  attempt ();
  attempt ();
  let s = Memo.stats () in
  checki "failed runs never hit" 0 s.Memo.hits

let test_step_budget_not_in_key () =
  (* the budget only decides whether a run may finish; a run that
     finished is the same run under any budget, so budgeted and
     unbudgeted callers share one entry *)
  Memo.reset ();
  let budgeted = { small_config with Machine.max_steps = 100_000_000 } in
  let r1 = Memo.run ~config:budgeted nbody_program in
  let r2 = Memo.run ~config:small_config nbody_program in
  let s = Memo.stats () in
  checki "budgeted run misses" 1 s.Memo.misses;
  checki "unbudgeted run hits" 1 s.Memo.hits;
  check "same result" true (r1.Machine.output = r2.Machine.output)

let test_task_cache_budget_free () =
  (* a cached task output must neither be keyed by the budget nor carry
     the computing request's budget into another request's flow *)
  Test_cache.with_cache_dir (fun _ ->
      let art =
        Artifact.create Nbody.app ~workload:[ ("N", 8); ("STEPS", 1) ]
      in
      let apply art =
        match Task_cache.apply Tasks.identify_hotspot_loops art with
        | Ok out -> out
        | Error e -> Alcotest.fail e
      in
      let budgeted =
        apply { art with Artifact.art_step_budget = Some 100_000_000 }
      in
      let plain = apply art in
      let s = Task_cache.stats () in
      checki "budgeted application misses" 1 s.Cache.misses;
      checki "unbudgeted application hits" 1 s.Cache.mem_hits;
      check "the miss keeps its own budget" true
        (budgeted.Artifact.art_step_budget = Some 100_000_000);
      check "the hit carries no budget" true
        (plain.Artifact.art_step_budget = None))

let test_flow_run_reuses_interpretations () =
  (* acceptance: one uninformed N-Body flow must hit the memo at least
     three times (the analysis tasks share one kernel profile) *)
  Memo.reset ();
  (match
     Engine.run ~workload:Nbody.app.App.app_test_overrides
       ~mode:Pipeline.Uninformed Nbody.app
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("flow failed: " ^ e));
  let s = Memo.stats () in
  check
    (Printf.sprintf "at least 3 hits in one flow run (got %d)" s.Memo.hits)
    true (s.Memo.hits >= 3)

let test_backends_do_not_collide () =
  Memo.reset ();
  let config = Memo.analysis_config ~config:small_config () in
  let ra = Memo.run ~config ~backend:`Ast nbody_program in
  let rc = Memo.run ~config ~backend:`Compiled nbody_program in
  let s = Memo.stats () in
  checki "each backend keyed separately" 2 s.Memo.misses;
  checki "no cross-backend hit" 0 s.Memo.hits;
  check "backends agree through the cache" true
    (sorted_stats ra = sorted_stats rc && ra.Machine.output = rc.Machine.output)

let suite =
  [
    ("memoized run equals direct run", `Quick, test_memo_equals_direct);
    ("backends are keyed separately", `Quick, test_backends_do_not_collide);
    ("distinct configs do not collide", `Quick, test_distinct_configs_do_not_collide);
    ("id-renumbered programs share one entry", `Quick, test_renumbered_program_hits);
    ("failed runs are not cached", `Quick, test_exceptions_not_cached);
    ("step budget is not in the key", `Quick, test_step_budget_not_in_key);
    ("task cache keys and hits are budget-free", `Quick, test_task_cache_budget_free);
    ("one flow run reuses interpretations", `Quick, test_flow_run_reuses_interpretations);
  ]
