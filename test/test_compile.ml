(* Differential tests for the non-walker interpreter backends: the
   closure-compiled backend and the superinstruction VM must both be
   observably bit-identical to the reference tree-walker on every
   program — output, counters, loop/region stats, alias verdicts, final
   memory, and raised exceptions.  Every parity check below runs the
   full walker/compiled/VM triangle. *)

let check = Alcotest.(check bool)

let parse = Parser.parse_program

(* Observable projection of a result.  Hashtbl-fold-built assoc lists are
   sorted by key so ordering differences (there are none today, since both
   backends populate the tables in the same first-touch order, but the
   comparison should not depend on that) cannot cause false alarms.
   Memory is projected to (name, elem_ty, contents) per base: both
   backends allocate in the same program order, so bases line up. *)
type observation = {
  o_ret : Value.t option;
  o_output : string list;
  o_counters : Counters.t;
  o_loops : (int * (int * int * Counters.t)) list;
  o_regions :
    (Machine.region * (int * Counters.t * (string * int * int * int) list * int * int))
    list;
  o_aliases : (string * bool) list;
  o_memory : (string * Ast.ty * float array) list;
}

let observe (r : Machine.result) : observation =
  let mem = r.Machine.memory in
  let arrays = ref [] in
  for base = Memory.array_count mem - 1 downto 0 do
    arrays :=
      (Memory.name mem base, Memory.elem_ty mem base, Memory.to_float_array mem base)
      :: !arrays
  done;
  {
    o_ret = r.Machine.ret;
    o_output = r.Machine.output;
    o_counters = r.Machine.counters;
    o_loops =
      List.sort compare
        (List.map
           (fun (sid, (ls : Machine.loop_stats)) ->
             (sid, (ls.Machine.ls_entries, ls.Machine.ls_iterations, ls.Machine.ls_counters)))
           r.Machine.loop_stats);
    o_regions =
      List.sort compare
        (List.map
           (fun (rg, (rs : Machine.region_stats)) ->
             ( rg,
               ( rs.Machine.rs_invocations,
                 rs.Machine.rs_counters,
                 List.sort compare
                   (List.map
                      (fun (t : Machine.array_traffic) ->
                        ( t.Machine.at_name,
                          t.Machine.at_elem_bytes,
                          t.Machine.at_read_elems,
                          t.Machine.at_written_elems ))
                      rs.Machine.rs_traffic),
                 rs.Machine.rs_bytes_in,
                 rs.Machine.rs_bytes_out ) ))
           r.Machine.region_stats);
    o_aliases = List.sort compare r.Machine.aliased_funcs;
    o_memory = !arrays;
  }

(* run one backend, capturing normal results and exceptions uniformly *)
type outcome =
  | Completed of observation
  | Failed of Loc.t * string
  | Out_of_steps

let run_backend backend config p : outcome =
  match Machine.run ~config ~backend p with
  | r -> Completed (observe r)
  | exception Machine.Runtime_error (loc, msg) -> Failed (loc, msg)
  | exception Machine.Step_limit_exceeded -> Out_of_steps

let outcomes_equal a b =
  match a, b with
  | Completed oa, Completed ob -> compare oa ob = 0
  | Failed (la, ma), Failed (lb, mb) -> la = lb && String.equal ma mb
  | Out_of_steps, Out_of_steps -> true
  | _ -> false

let agree ?(config = Machine.default_config) p =
  let reference = run_backend `Ast config p in
  outcomes_equal reference (run_backend `Compiled config p)
  && outcomes_equal reference (run_backend `Vm config p)

let agree_src ?config src = agree ?config (parse src)

(* a config that exercises every profiling observable at once *)
let full_config (p : Ast.program) =
  let fnames = List.map (fun f -> f.Ast.fname) (Ast.funcs p) in
  let sids = List.map (fun (lm : Query.loop_match) -> lm.Query.lm_stmt.Ast.sid) (Query.loops p) in
  {
    Machine.default_config with
    profile_loops = true;
    trace_aliases = true;
    regions =
      List.map (fun f -> Machine.Rfunc f) fnames
      @ List.map (fun s -> Machine.Rstmt s) sids;
  }

(* what the flow's dynamic analyses ask of a run: loop profiles, alias
   tracing and whole-function regions, without the per-statement [Rstmt]
   regions of [full_config], which keep nests off the planned path *)
let flow_config (p : Ast.program) =
  {
    Machine.default_config with
    profile_loops = true;
    trace_aliases = true;
    regions = List.map (fun f -> Machine.Rfunc f.Ast.fname) (Ast.funcs p);
  }

(* the profile lists exactly as returned, order included: the VM creates
   loop accumulators and region footprints in the walker's first-touch
   order, so not even the Hashtbl-fold order of the lists may differ *)
let raw_profiles config p backend =
  let r = Machine.run ~config ~backend p in
  (r.Machine.loop_stats, r.Machine.region_stats)

let agree_flow p =
  let config = flow_config p in
  agree ~config p && raw_profiles config p `Ast = raw_profiles config p `Vm

(* statements one VM run executed on the planned path, and in all *)
let planned_of config p =
  let before = Machine.planned_steps () in
  let r = Machine.run ~config ~backend:`Vm p in
  (Machine.planned_steps () - before, r.Machine.counters.Counters.steps)

let loop_sids p =
  List.map (fun (lm : Query.loop_match) -> lm.Query.lm_stmt.Ast.sid) (Query.loops p)

let loop_locs p =
  List.map (fun (lm : Query.loop_match) -> lm.Query.lm_stmt.Ast.sloc) (Query.loops p)

(* ---- the five suite applications ---- *)

let test_suite_apps () =
  List.iter
    (fun (app : App.t) ->
      let p = App.program app in
      let config =
        {
          (full_config p) with
          overrides = App.machine_overrides app.App.app_test_overrides;
        }
      in
      check
        (Printf.sprintf "backends agree on %s (fully profiled)" app.App.app_slug)
        true
        (agree ~config p))
    Suite.all

let test_suite_apps_plain () =
  List.iter
    (fun (app : App.t) ->
      let p = App.program app in
      let config =
        {
          Machine.default_config with
          overrides = App.machine_overrides app.App.app_test_overrides;
        }
      in
      check (Printf.sprintf "backends agree on %s (no profiling)" app.App.app_slug)
        true (agree ~config p))
    Suite.all

(* ---- targeted parity cases ---- *)

let test_shadowing () =
  check "inner decl shadows, outer restored" true
    (agree_src
       {|
int main() {
  int x = 1;
  { int x = 2; print_int(x); }
  print_int(x);
  for (int i = 0; i < 3; i++) { double x = 0.5; print_float(x + (double)i); }
  print_int(x);
  return 0;
}|})

let test_use_before_decl () =
  (* a use before the local declaration resolves to the outer binding in
     both backends *)
  check "use before declaration sees outer binding" true
    (agree_src
       {|
int g = 7;
int main() {
  print_int(g);
  int h = g + 1;
  int g = 100;
  print_int(g);
  print_int(h);
  return 0;
}|})

let test_early_return_and_break () =
  check "early return / break / continue" true
    (agree_src
       {|
int f(int n) {
  for (int i = 0; i < n; i++) {
    if (i == 3) { break; }
    if (i == 1) { continue; }
    if (n > 10) { return -1; }
    print_int(i);
  }
  return n;
}
int main() {
  print_int(f(5));
  print_int(f(20));
  while (true) { break; }
  return 0;
}|})

let test_numeric_semantics () =
  (* mixed precision, casts, bool arrays, integral Mod on floats, compound
     ops: the corners where the compiled specializations must match the
     dynamic walker exactly *)
  check "numeric corner cases" true
    (agree_src
       {|
int main() {
  bool flags[4];
  flags[0] = 0.5;
  flags[1] = true;
  flags[2] = 0.0;
  flags[3] = 3;
  int ones = 0;
  for (int i = 0; i < 4; i++) { if (flags[i]) { ones += 1; } }
  print_int(ones);
  double d = 7.9;
  float s = 7.9f;
  int t = (int)d;
  print_int(t);
  print_int(d % 3);
  print_float((double)s);
  float arr[3];
  arr[0] = 1.0000001;
  arr[1] = (float)(1.0 / 3.0);
  arr[2] = 2;
  double acc = 0.0;
  for (int i = 0; i < 3; i++) { acc += arr[i]; }
  print_float(acc);
  int k = 10;
  k /= 3;
  k *= -2;
  print_int(k);
  d -= 0.5f;
  s += 1;
  print_float(d);
  print_float((double)s);
  int ia[2];
  ia[0] = 41;
  ia[1] = 2;
  ia[0] += 1;
  ia[1] *= 3;
  print_int(ia[0] + ia[1]);
  print_float(fabs(-2.5) + fminf(1.0f, 2.0f) + (double)imax(3, 4));
  print_float(1.0 ? 2.0 : 3.0);
  print_int(true ? 1 : 0);
  return 0;
}|})

let test_alias_tracing () =
  let src =
    {|
double sum2(double* a, double* b, int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++) { s += a[i] + b[i]; }
  return s;
}
int main() {
  double x[8];
  double y[8];
  for (int i = 0; i < 8; i++) { x[i] = (double)i; y[i] = 1.0; }
  print_float(sum2(x, y, 8));
  print_float(sum2(x, x, 8));
  return 0;
}|}
  in
  let p = parse src in
  check "alias verdicts agree" true (agree ~config:(full_config p) p);
  (* and positively: the compiled backend detects the aliasing call *)
  let config = { (full_config p) with trace_aliases = true } in
  let r = Machine.run ~config ~backend:`Compiled p in
  check "compiled backend flags sum2 as aliased" true
    (List.assoc_opt "sum2" r.Machine.aliased_funcs = Some true)

let test_global_overrides () =
  let p =
    parse
      {|
const int N = 4;
double scale = 0.5;
int main() {
  double acc = 0.0;
  for (int i = 0; i < N; i++) { acc += scale * (double)i; }
  print_float(acc);
  return 0;
}|}
  in
  let config =
    { Machine.default_config with overrides = [ ("N", Value.Vint 6) ] }
  in
  check "global override respected identically" true (agree ~config p);
  (* the walker skips evaluating the overridden initializer; so must we *)
  let r = Machine.run ~config ~backend:`Compiled p in
  check "override value used" true (r.Machine.output = [ "7.5" ])

let test_error_parity () =
  let cases =
    [
      ("div by zero", "int main() { int a = 1; int b = 0; print_int(a / b); return 0; }");
      ("mod by zero", "int main() { int a = 1; int b = 0; print_int(a % b); return 0; }");
      ( "oob read",
        "int main() { double a[4]; print_float(a[7]); return 0; }" );
      ( "oob write",
        "int main() { double a[4]; for (int i = 0; i <= 4; i++) { a[i] = 1.0; } return 0; }" );
      ( "unknown intrinsic",
        "int main() { print_int(mystery(3)); return 0; }" );
      ( "arity mismatch",
        "int f(int a, int b) { return a + b; } int main() { print_int(f(1)); return 0; }" );
      ( "negative alloc",
        "int main() { int n = 0 - 3; double a[n]; return 0; }" );
    ]
  in
  List.iter (fun (name, src) -> check name true (agree_src src)) cases

let test_step_limit_parity () =
  let src =
    {|
int main() {
  int acc = 0;
  for (int i = 0; i < 1000; i++) { acc += i; acc += 1; acc += 2; }
  print_int(acc);
  return 0;
}|}
  in
  let p = parse src in
  (* sweep budgets across segment boundaries: the batched budget must
     raise exactly when per-statement ticking would *)
  for max_steps = 1 to 60 do
    let config = { Machine.default_config with max_steps } in
    check (Printf.sprintf "step budget %d" max_steps) true (agree ~config p)
  done;
  (* and at a coarser grain across the whole run *)
  List.iter
    (fun max_steps ->
      let config = { Machine.default_config with max_steps } in
      check (Printf.sprintf "step budget %d" max_steps) true (agree ~config p))
    [ 100; 1000; 2000; 5000; 5999; 6000; 6007; 8000 ]

let test_step_count_identical () =
  (* same program, all backends complete: identical total steps *)
  List.iter
    (fun (app : App.t) ->
      let config =
        {
          Machine.default_config with
          overrides = App.machine_overrides app.App.app_test_overrides;
        }
      in
      let p = App.program app in
      let sa = (Machine.run ~config ~backend:`Ast p).Machine.counters.Counters.steps in
      let sc = (Machine.run ~config ~backend:`Compiled p).Machine.counters.Counters.steps in
      let sv = (Machine.run ~config ~backend:`Vm p).Machine.counters.Counters.steps in
      Alcotest.(check int) (app.App.app_slug ^ " steps") sa sc;
      Alcotest.(check int) (app.App.app_slug ^ " steps (vm)") sa sv)
    Suite.all

let test_recursion () =
  check "recursion and mutual calls" true
    (agree_src
       {|
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }
int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }
int main() {
  print_int(fib(12));
  print_int(is_even(9));
  print_int(is_odd(9));
  return 0;
}|})

let test_prng_stream () =
  (* PRNG draws must interleave identically with all other evaluation *)
  check "rand01 stream order" true
    (agree_src
       {|
int main() {
  double a = rand01() + rand01() * rand01();
  double b = rand01() < 0.5 ? rand01() : rand01() + 1.0;
  print_float(a);
  print_float(b);
  print_float(rand01());
  return 0;
}|})

let test_exec_stats_accumulate () =
  Machine.reset_exec_stats ();
  let p = parse "int main() { print_int(1 + 2); return 0; }" in
  ignore (Machine.run p);
  ignore (Machine.run ~backend:`Ast p);
  let s = Machine.exec_stats () in
  Alcotest.(check int) "two runs recorded" 2 s.Machine.exec_runs;
  check "steps accumulated" true (s.Machine.exec_steps > 0);
  check "time accumulated" true (s.Machine.exec_seconds >= 0.0)

let test_default_backend_switch () =
  let saved = Machine.default_backend () in
  Machine.set_default_backend `Ast;
  check "default backend switched" true (Machine.default_backend () = `Ast);
  Machine.set_default_backend saved;
  check "backend names round-trip" true
    (Machine.backend_of_string (Machine.backend_name `Ast) = Some `Ast
    && Machine.backend_of_string (Machine.backend_name `Compiled) = Some `Compiled
    && Machine.backend_of_string (Machine.backend_name `Vm) = Some `Vm
    && Machine.backend_of_string "nope" = None)

(* ---- fault-injection parity across backends ---- *)

(* the first line of --explain/--why names the active backend; drop it so
   the rest of the trail can be compared byte-for-byte across backends *)
let drop_backend_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

let test_fault_report_backend_invariant () =
  (* an injected task fault must prune the same branch with the same
     provenance whatever backend interprets the programs: faults fire on
     task sites, never on interpreter internals *)
  let observe backend =
    let saved = Machine.default_backend () in
    Machine.set_default_backend backend;
    Fun.protect
      ~finally:(fun () -> Machine.set_default_backend saved)
      (fun () ->
        (match Util.Faultsim.parse "task:GPU-2080" with
         | Ok spec -> Util.Faultsim.arm spec
         | Error e -> Alcotest.fail e);
        Fun.protect ~finally:Util.Faultsim.disarm (fun () ->
            (* drop the in-memory task/run caches so every backend's run
               actually interprets instead of replaying a cached result *)
            Cache.clear_memory ();
            match
              Engine.run ~workload:Nbody.app.App.app_test_overrides
                ~mode:Pipeline.Uninformed Nbody.app
            with
            | Error e -> Alcotest.fail e
            | Ok rep ->
              ( List.map
                  (fun (d : Design.t) -> Target.short d.Design.d_target)
                  rep.Engine.rep_designs,
                Report.failures_text rep,
                drop_backend_line (Report.why_text rep) )))
  in
  let da, fa, wa = observe `Ast in
  let dc, fc, wc = observe `Compiled in
  let dv, fv, wv = observe `Vm in
  check "fault prunes a branch" true (fa <> "");
  check "designs identical (compiled)" true (da = dc);
  check "designs identical (vm)" true (da = dv);
  Alcotest.(check string) "failure lines identical (compiled)" fa fc;
  Alcotest.(check string) "failure lines identical (vm)" fa fv;
  Alcotest.(check string) "why trails identical (compiled)" wa wc;
  Alcotest.(check string) "why trails identical (vm)" wa wv

(* ---- loop-nest lowering: coverage and budget parity ---- *)

(* a K-Means-shaped kernel: a three-level nest with an if site, a ternary
   site and loop-carried scalars, small enough to sweep step budgets
   across every outer-iteration boundary *)
let nest_src =
  {|
const int N = 8;
int main() {
  double a[N];
  double b[N];
  for (int i = 0; i < N; i++) { a[i] = (double)i * 0.25; b[i] = 0.0; }
  double acc = 0.0;
  for (int it = 0; it < 4; it++) {
    for (int i = 0; i < N; i++) {
      double best = 1.0e9;
      for (int k = 0; k < 4; k++) {
        double d = a[i] - (double)k;
        double d2 = d * d;
        if (d2 < best) { best = d2; }
      }
      b[i] += best;
      acc += (i < 4) ? best : 0.5 * best;
    }
  }
  double checksum = acc;
  for (int i = 0; i < N; i++) { checksum += b[i]; }
  print_float(checksum);
  return 0;
}|}

let test_nest_planned_coverage () =
  let p = parse nest_src in
  (* the lowering pass plans the whole three-level nest including both
     control-flow sites *)
  let outcomes = Ir_lower.plan_report p in
  check "three-level nest planned" true
    (List.exists
       (function
         | _, Ir_lower.Planned { levels; sites } -> levels = 3 && sites = 2
         | _ -> false)
       outcomes);
  check "no unplannable loops" true
    (List.for_all
       (function _, Ir_lower.Planned _ -> true | _ -> false)
       outcomes);
  (* and the VM executes nearly all statements on the planned path *)
  let before = Machine.planned_steps () in
  let r = Machine.run ~backend:`Vm p in
  let planned = Machine.planned_steps () - before in
  let total = r.Machine.counters.Counters.steps in
  check "planned steps bounded by total" true (planned <= total && planned > 0);
  check "step coverage >= 0.9" true
    (float_of_int planned >= 0.9 *. float_of_int total)

let test_nest_budget_bail_parity () =
  (* sweep the step budget across the whole run, hitting every
     outer-iteration boundary of the planned nest: the guard's budget
     bail is pre-effect, so walker, compiled and VM must abort at exactly
     the same statement with identical partial state — and budgets
     between the guard's worst-case site accounting and the actual cost
     exercise bail-then-complete on the closure path with all counters
     observable *)
  let p = parse nest_src in
  let total =
    (Machine.run ~backend:`Ast p).Machine.counters.Counters.steps
  in
  for max_steps = 1 to 100 do
    let config = { Machine.default_config with max_steps } in
    check (Printf.sprintf "nest budget %d" max_steps) true (agree ~config p)
  done;
  List.iter
    (fun max_steps ->
      let config = { Machine.default_config with max_steps } in
      check (Printf.sprintf "nest budget %d" max_steps) true (agree ~config p))
    (List.concat_map
       (fun d -> [ (total / 4) + d; (total / 2) + d; total + d ])
       [ -2; -1; 0; 1 ]);
  (* fully profiled, [Rstmt] regions keep the nest off the planned path;
     flow-shaped, the nest runs planned with derived loop profiles and
     region footprints, and its budget bail is still pre-effect *)
  List.iter
    (fun max_steps ->
      let config = { (full_config p) with max_steps } in
      check
        (Printf.sprintf "nest budget %d (profiled)" max_steps)
        true (agree ~config p);
      let config = { (flow_config p) with max_steps } in
      check
        (Printf.sprintf "nest budget %d (flow-shaped)" max_steps)
        true (agree ~config p))
    [ 10; 50; (total / 2) + 1; total - 1; total + 50 ]

(* ---- profiled nests and region-tracked plans ---- *)

let test_nest_flow_profiled_planned () =
  (* the three-level nest with both sites runs planned under the flow's
     profiling: per-level loop_stats are derived, not re-executed *)
  let p = parse nest_src in
  check "flow-shaped profiles agree, order included" true (agree_flow p);
  let planned, total = planned_of (flow_config p) p in
  check "flow-shaped step coverage >= 0.9" true
    (float_of_int planned >= 0.9 *. float_of_int total)

(* inside a region: a strip-mined copy whose store is guarded by a site
   (only the guarded elements count as written), reads after writes (not
   read-first), and a never-taken arm over invariant cells (d stored, e
   only read) that must leave no footprint at all *)
let region_src =
  {|
const int N = 42;
void knl(double* a, double* b, double* c, double* d, double* e, int n) {
  for (int t = 0; t < n; t += 4) {
    for (int k = 0; k < 4; k++) {
      if (t + k < n) { b[t + k] = a[t + k] * 2.0; }
    }
  }
  for (int i = 0; i < n; i++) {
    c[i] = 1.0;
    c[i] += b[i] + a[(i * 3) % n];
  }
  for (int i = 0; i < n; i++) {
    if (a[i] > 100.0) { d[0] = a[i] + e[0]; }
  }
}
int main() {
  double a[44];
  double b[44];
  double c[N];
  double d[1];
  double e[1];
  for (int i = 0; i < 44; i++) { a[i] = (double)i; b[i] = 0.0; }
  for (int i = 0; i < N; i++) { c[i] = 0.0; }
  d[0] = 0.0;
  e[0] = 1.0;
  knl(a, b, c, d, e, N);
  double s = 0.0;
  for (int i = 0; i < N; i++) { s += b[i] + c[i]; }
  print_float(s);
  return 0;
}|}

let test_region_site_guarded_store () =
  let p = parse region_src in
  check "flow-shaped profiles agree, order included" true (agree_flow p);
  let config = flow_config p in
  let planned, total = planned_of config p in
  check "region nests run planned" true
    (float_of_int planned >= 0.9 *. float_of_int total);
  let r = Machine.run ~config ~backend:`Vm p in
  match Machine.find_region_stats r (Machine.Rfunc "knl") with
  | None -> Alcotest.fail "knl region missing"
  | Some rs ->
    let find name =
      List.find_opt (fun (t : Machine.array_traffic) -> t.Machine.at_name = name)
        rs.Machine.rs_traffic
    in
    let traffic name =
      match find name with
      | Some t -> (t.Machine.at_read_elems, t.Machine.at_written_elems)
      | None -> Alcotest.fail ("no traffic for " ^ name)
    in
    check "d and e never touched" true (find "d" = None && find "e" = None);
    Alcotest.(check (pair int int)) "a: 42 read, none written" (42, 0) (traffic "a");
    Alcotest.(check (pair int int)) "b: only the guarded 42 written" (0, 42) (traffic "b");
    Alcotest.(check (pair int int)) "c: written before read" (0, 42) (traffic "c")

let zero_trip_src =
  {|
int main() {
  int m = 0;
  double acc = 0.0;
  for (int i = 0; i < 40; i++) {
    for (int j = 0; j < m; j++) {
      for (int k = 0; k < 3; k++) { acc += (double)k; }
    }
    for (int j = 0; j < 2; j++) {
      if (i > 50) {
        for (int k = 0; k < 3; k++) { acc += 1.0; }
      }
      if (i % 4 == 0) {
        for (int k = 0; k < 2; k++) { acc += 2.0; }
      }
      acc += 0.5;
    }
  }
  print_float(acc);
  return 0;
}|}

let test_zero_trip_levels_profiled () =
  (* a zero-trip level is entered but never iterates; the levels inside
     it, and a level under a never-taken site, are never entered and must
     get no loop_stats entry, as on the closure path.  A level under a
     site is entered once per taken then-arm. *)
  let p = parse zero_trip_src in
  check "flow-shaped profiles agree, order included" true (agree_flow p);
  let config = flow_config p in
  let planned, total = planned_of config p in
  check "nest runs planned" true (float_of_int planned >= 0.9 *. float_of_int total);
  let r = Machine.run ~config ~backend:`Vm p in
  match loop_sids p with
  | [ outer; zero_trip; under_zero; second; under_site; under_taken ] ->
    let entries sid =
      Option.map
        (fun (ls : Machine.loop_stats) -> (ls.Machine.ls_entries, ls.Machine.ls_iterations))
        (Machine.find_loop_stats r sid)
    in
    let opt = Alcotest.(option (pair int int)) in
    Alcotest.check opt "outer" (Some (1, 40)) (entries outer);
    Alcotest.check opt "zero-trip level" (Some (40, 0)) (entries zero_trip);
    Alcotest.check opt "inside the zero-trip level" None (entries under_zero);
    Alcotest.check opt "second level" (Some (40, 80)) (entries second);
    Alcotest.check opt "under a never-taken site" None (entries under_site);
    Alcotest.check opt "under a site taken 20 times" (Some (20, 40))
      (entries under_taken)
  | _ -> Alcotest.fail "expected six loops"

let test_untracked_plan_bails () =
  (* a plan lowered without footprint marks must not run while a region
     is active: it bails, by name, to the closure path *)
  let p = parse region_src in
  let config = flow_config p in
  let reference = run_backend `Ast config p in
  let r = Compile.run ?plan:(Ir_lower.plan p) config p in
  check "untracked plan falls back exactly" true
    (outcomes_equal reference (Completed (observe r)));
  let knl_loop = List.hd (loop_locs p) in
  check "bail recorded as untracked" true
    (List.mem (knl_loop, "untracked") (Machine.plan_bail_sites ()))

let test_ill_typed_bail () =
  (* a float buffer forwarded through a double* parameter, as a launch
     function with undemoted parameters once did: the backends run it
     alike, but the typechecker rejects it, so nothing is planned — and
     that is reported *)
  let p =
    parse
      {|
void body(float* a, int i) { a[i] = a[i] * 2.0f; }
void launch(double* a, int n) { for (int i = 0; i < n; i++) { body(a, i); } }
int main() {
  float x[4];
  for (int i = 0; i < 4; i++) { x[i] = 1.5f; }
  launch(x, 4);
  print_float((double)x[0]);
  return 0;
}|}
  in
  check "program is ill-typed" true (Typecheck.check_program p <> Ok ());
  check "backends agree" true (agree p);
  let bails = Machine.plan_bail_sites () in
  check "every loop recorded as ill-typed" true
    (List.for_all (fun loc -> List.mem (loc, "ill-typed") bails) (loop_locs p))

let ill_typed_src =
  {|
void k(float* a, float* b) {
  for (int i = 0; i < 16; i++) { b[i] = a[i] * 2.0f; }
}
int main() {
  double a[16];
  double b[16];
  for (int i = 0; i < 16; i++) { a[i] = rand01() * 1.1; }
  k(a, b);
  double s = 0.0;
  for (int i = 0; i < 16; i++) { s += b[i]; }
  print_float(s);
  return 0;
}|}

let test_ill_typed_walker_exact () =
  (* double arrays bound to float* parameters: the walker keeps the
     arrays' double values and multiplies at double precision (16 in the
     kernel, 16 in the initialisation loop), where the
     closures would specialise on the static float type; an ill-typed
     program therefore runs on the walker under every backend *)
  let p = parse ill_typed_src in
  check "program is ill-typed" true (Typecheck.check_program p <> Ok ());
  check "backends agree" true (agree p);
  let counters backend = (Machine.run ~backend p).Machine.counters in
  List.iter
    (fun backend ->
      let c = counters backend in
      Alcotest.(check int)
        (Machine.backend_name backend ^ " counts double multiplies")
        32 c.Counters.flops_dp_mul;
      Alcotest.(check int)
        (Machine.backend_name backend ^ " counts no single multiplies")
        0 c.Counters.flops_sp_mul)
    [ `Ast; `Compiled; `Vm ]

(* ---- VM scratch state under concurrency ---- *)

(* The float-demoted designs of three apps, flow-shaped (profiled loops,
   region-tracked plans, alias tracing), run on four domains at once,
   several times over: each domain's runs must match a solo walker run
   bit for bit.  VM scratch state shared between domains (a demotion
   buffer, say) would corrupt some of them. *)
let test_sp_designs_concurrent () =
  let designs =
    List.map
      (fun slug ->
        let app = Option.get (Suite.find slug) in
        let p = App.program app in
        let sp =
          Sp_transforms.apply_all p
            ~fnames:(List.map (fun f -> f.Ast.fname) (Ast.funcs p))
        in
        let config =
          { (flow_config sp) with
            overrides = App.machine_overrides app.App.app_test_overrides }
        in
        (slug, config, sp))
      [ "nbody"; "adpredictor"; "bezier" ]
  in
  let solo =
    List.map (fun (slug, config, p) -> (slug, run_backend `Ast config p)) designs
  in
  let rounds = 3 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            List.concat
              (List.init rounds (fun r ->
                   (* rotate the order so domains overlap on different apps *)
                   let k = (d + r) mod List.length designs in
                   let order =
                     List.filteri (fun i _ -> i >= k) designs
                     @ List.filteri (fun i _ -> i < k) designs
                   in
                   List.map
                     (fun (slug, config, p) ->
                       (slug, run_backend `Vm config p))
                     order))))
  in
  let results = List.concat_map Domain.join domains in
  Alcotest.(check int) "every run finished" (4 * rounds * List.length designs)
    (List.length results);
  List.iter
    (fun (slug, got) ->
      check (slug ^ " concurrent VM run equals solo walker run") true
        (outcomes_equal (List.assoc slug solo) got))
    results

(* ---- random-program differential property ---- *)

let prop_backends_agree =
  QCheck.Test.make
    ~name:"compiled and vm backends agree with walker on random kernels"
    ~count:150 Test_props.arbitrary_program (fun src ->
      let p = parse src in
      agree ~config:(full_config p) p)

(* flow-shaped profiling of the random kernels and of their outlined
   hotspot (whose arrays come from outside the region, so they carry
   traffic): loop_stats, region_stats and traffic agree bit for bit, and
   the VM runs them planned *)
let prop_backends_agree_flow =
  QCheck.Test.make
    ~name:"backends agree on random kernels (flow-shaped profiling, planned nests)"
    ~count:150 Test_props.arbitrary_program (fun src ->
      let p = parse src in
      let kernel_agrees =
        match Hotspot.detect p with
        | [] -> true
        | h :: _ ->
          (match Hotspot.extract p ~sid:h.Hotspot.hs_sid ~kernel_name:"knl" with
           | Error _ -> true
           | Ok ex -> agree_flow ex.Hotspot.ex_program)
      in
      agree_flow p && kernel_agrees && fst (planned_of (flow_config p) p) > 0)

(* unprofiled, the VM actually executes random nests/ifs/ternaries on the
   planned fast path instead of bailing to the closure fallback *)
let prop_backends_agree_plain =
  QCheck.Test.make
    ~name:"backends agree on random kernels (unprofiled, planned nests)"
    ~count:150 Test_props.arbitrary_program (fun src -> agree (parse src))

(* the same kernels demoted to single precision end to end, the way the
   flow's GPU and FPGA branches demote a kernel, so the SP lowering and
   its superinstructions run *)
let sp_program src =
  let p = parse src in
  Sp_transforms.apply_all p ~fnames:(List.map (fun f -> f.Ast.fname) (Ast.funcs p))

let prop_backends_agree_sp =
  QCheck.Test.make
    ~name:"backends agree on float-demoted random kernels (unprofiled, planned nests)"
    ~count:150 Test_props.arbitrary_program (fun src ->
      let p = sp_program src in
      agree p && fst (planned_of Machine.default_config p) > 0)

let prop_backends_agree_sp_flow =
  QCheck.Test.make
    ~name:"backends agree on float-demoted random kernels (flow-shaped profiling)"
    ~count:100 Test_props.arbitrary_program (fun src -> agree_flow (sp_program src))

let suite =
  [
    Alcotest.test_case "suite apps fully profiled" `Quick test_suite_apps;
    Alcotest.test_case "suite apps unprofiled" `Quick test_suite_apps_plain;
    Alcotest.test_case "scope shadowing" `Quick test_shadowing;
    Alcotest.test_case "use before declaration" `Quick test_use_before_decl;
    Alcotest.test_case "early return and break" `Quick test_early_return_and_break;
    Alcotest.test_case "numeric corner cases" `Quick test_numeric_semantics;
    Alcotest.test_case "alias tracing" `Quick test_alias_tracing;
    Alcotest.test_case "global overrides" `Quick test_global_overrides;
    Alcotest.test_case "error parity" `Quick test_error_parity;
    Alcotest.test_case "step limit parity" `Quick test_step_limit_parity;
    Alcotest.test_case "step counts identical" `Quick test_step_count_identical;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "prng stream order" `Quick test_prng_stream;
    Alcotest.test_case "exec stats accumulate" `Quick test_exec_stats_accumulate;
    Alcotest.test_case "default backend switch" `Quick test_default_backend_switch;
    Alcotest.test_case "fault report backend-invariant" `Slow
      test_fault_report_backend_invariant;
    Alcotest.test_case "nest planned coverage" `Quick test_nest_planned_coverage;
    Alcotest.test_case "nest budget-bail parity" `Quick test_nest_budget_bail_parity;
    Alcotest.test_case "nest flow-profiled planned" `Quick test_nest_flow_profiled_planned;
    Alcotest.test_case "region site-guarded store" `Quick test_region_site_guarded_store;
    Alcotest.test_case "zero-trip levels profiled" `Quick test_zero_trip_levels_profiled;
    Alcotest.test_case "untracked plan bails" `Quick test_untracked_plan_bails;
    Alcotest.test_case "ill-typed bail" `Quick test_ill_typed_bail;
    QCheck_alcotest.to_alcotest prop_backends_agree;
    QCheck_alcotest.to_alcotest prop_backends_agree_flow;
    QCheck_alcotest.to_alcotest prop_backends_agree_plain;
    Alcotest.test_case "ill-typed program walker-exact" `Quick test_ill_typed_walker_exact;
    Alcotest.test_case "SP designs on concurrent domains" `Quick test_sp_designs_concurrent;
    QCheck_alcotest.to_alcotest prop_backends_agree_sp;
    QCheck_alcotest.to_alcotest prop_backends_agree_sp_flow;
  ]
