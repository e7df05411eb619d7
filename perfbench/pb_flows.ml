(* The in-process flow workloads, flow_cold and flow_warm: uninformed
   Request.run of the five apps at the evaluation workload, on a
   scheduler of nproc domains.

   flow_cold gives every pass a fresh, empty cache directory and clears
   the memory tier, so each flow computes and writes all its entries.
   flow_warm fills one cache directory during set-up and clears only the
   memory tier before each flow, so every lookup is a disk read and the
   interpreter never runs.

   Every number is a before/after delta around one flow: Machine's
   exec_stats and planned_steps, Cache.stats and the Obs.Metrics
   counters are cumulative for the process. *)

open Pb_common

type config = {
  warm : bool;
  seed : int;
  seconds : float;
  trace : bool;
  refs : string;
  work : string;
}

(* Cumulative process counters, read before and after each flow. *)
type counters = {
  runs : int;
  steps : int;
  busy : float;
  planned : int;
  cache : Cache.stats;
  instruments : (string * float) list;
}

(* Read individually: a whole Obs.Metrics snapshot sorts every
   histogram's observations, which grows with the flows already run. *)
let counter_names = [ "pool.spawned"; "pool.steals"; "pool.idle_ns" ]

let histogram_names = [ "flow.task.seconds"; "dse.point.seconds" ]

let read_counters () =
  let e = Machine.exec_stats () in
  {
    runs = e.Machine.exec_runs;
    steps = e.Machine.exec_steps;
    busy = e.Machine.exec_seconds;
    planned = Machine.planned_steps ();
    cache = Cache.stats ();
    instruments =
      List.map
        (fun n -> (n, float_of_int (Obs.Metrics.Counter.value (Obs.Metrics.counter n))))
        counter_names
      @ List.map
          (fun n -> (n, float_of_int (Obs.Metrics.Histogram.count (Obs.Metrics.histogram n))))
          histogram_names;
  }

let instrument_delta a b name = List.assoc name b.instruments -. List.assoc name a.instruments

type sample = {
  app : string;
  secs : float;
  ok : bool;
  traced : bool;
  before : counters;
  after : counters;
  phases : (string * float) list;  (** flow.phase.*.seconds after the flow *)
  spans : (string * float) list;  (** self seconds by layer, traced flows only *)
  dse_ms : float list;  (** dse-point span durations, traced flows only *)
}

let phase_names = [ "analyse"; "decide"; "fanout"; "assemble" ]

let task_kind_name = function
  | Task.Analysis -> "analysis"
  | Task.Transform -> "transform"
  | Task.Codegen -> "codegen"
  | Task.Optimisation -> "optimisation"

let task_kinds =
  List.map (fun (t : Task.t) -> (t.Task.name, task_kind_name t.Task.kind)) Pipeline.repository

(* Self time of every span: its duration minus that of its children on
   the same domain track, summed over tracks.  Keys are the span
   category ("cache-lookup", "dse-point", ...) and, for task spans,
   "task:<kind>" with the kind looked up in Pipeline.repository. *)
let self_times events =
  let stacks = Hashtbl.create 8 in
  let self = Hashtbl.create 16 in
  let dse = ref [] in
  let add k v = Hashtbl.replace self k (v +. Option.value ~default:0.0 (Hashtbl.find_opt self k)) in
  List.iter
    (fun (ev : Obs.Trace.event) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks ev.ev_tid) in
      match (ev.ev_ph, stack) with
      | `B, _ -> Hashtbl.replace stacks ev.ev_tid ((ev, ref 0.0) :: stack)
      | `E, (b, children) :: rest ->
        let dur = (ev.ev_ts -. b.Obs.Trace.ev_ts) /. 1e6 in
        (match rest with (_, c) :: _ -> c := !c +. dur | [] -> ());
        Hashtbl.replace stacks ev.ev_tid rest;
        let s = dur -. !children in
        add b.ev_cat s;
        if b.ev_cat = "task" then
          add ("task:" ^ Option.value ~default:"other" (List.assoc_opt b.ev_name task_kinds)) s;
        if b.ev_cat = "dse-point" then dse := (dur *. 1000.0) :: !dse
      | `E, [] -> ())
    events;
  (List.of_seq (Hashtbl.to_seq self), !dse)

let spec slug = builtin ~quick:false Pipeline.Uninformed slug

(* One timed Request.run, checked byte for byte against its reference. *)
let run_flow ~traced ~expected slug =
  let before = read_counters () in
  if traced then Obs.Trace.start ();
  let t0 = now () in
  let oc = Request.run (spec slug) in
  let secs = now () -. t0 in
  if traced then Obs.Trace.stop ();
  let after = read_counters () in
  let ok = oc.Request.oc_status = 0 && String.equal oc.Request.oc_text expected in
  if not ok then
    log "%s: status %d, report %s reference%s" slug oc.Request.oc_status
      (if String.equal oc.Request.oc_text expected then "matches" else "differs from")
      (if oc.Request.oc_error = "" then "" else ": " ^ oc.Request.oc_error);
  let phases =
    List.map
      (fun p ->
        (p, Obs.Metrics.Gauge.value (Obs.Metrics.gauge ("flow.phase." ^ p ^ ".seconds"))))
      phase_names
  in
  let spans, dse_ms = if traced then self_times (Obs.Trace.events ()) else ([], []) in
  { app = slug; secs; ok; traced; before; after; phases; spans; dse_ms }

(* ---- set-up ---- *)

type setup = {
  refs_eval : (string * string) list;
  parse_ms : float;  (** mean App.program time per source *)
  warm_dir : string option;  (** the filled disk tier of flow_warm *)
}

(* Quick-workload flows of every app in a throw-away cache: the first
   flows of a process pay for domain start-up and heap growth, which
   belongs to set-up, not to the first timed flow. *)
let warm_up cfg =
  let dir = Filename.concat cfg.work "warm-up" in
  Cache.set_dir (Some dir);
  let ok =
    List.for_all
      (fun slug ->
        let oc = Request.run (builtin ~quick:true Pipeline.Uninformed slug) in
        oc.Request.oc_status = 0
        && String.equal oc.Request.oc_text
             (load_ref ~refs:cfg.refs ~quick:true Pipeline.Uninformed slug))
      apps
  in
  Cache.clear_memory ();
  Cache.set_dir None;
  rm_rf dir;
  if not ok then log "warm-up flow differs from its reference";
  ok

(* Parse the apps, then warm up (flow_cold) or fill the disk tier with
   a cold flow of every app (flow_warm, whose fill pays the first-flow
   costs the warm-up is for).  Returns the set-up, the time it was done,
   and whether every flow in it matched its reference. *)
let setup cfg =
  Util.Pool.set_default_jobs (Util.Pool.recommended_jobs ());
  let refs_eval =
    List.map (fun slug -> (slug, load_ref ~refs:cfg.refs ~quick:false Pipeline.Uninformed slug)) apps
  in
  let parse_s =
    List.map
      (fun slug ->
        let app = app_of slug in
        let t0 = now () in
        ignore (App.program app);
        now () -. t0)
      apps
  in
  let warm_ok = cfg.warm || warm_up cfg in
  let warm_dir, fill_ok =
    if cfg.warm then begin
      let dir = Filename.concat cfg.work "warm-cache" in
      Cache.set_dir (Some dir);
      let fill =
        List.map (fun slug -> run_flow ~traced:false ~expected:(List.assoc slug refs_eval) slug) apps
      in
      (Some dir, List.for_all (fun s -> s.ok) fill)
    end
    else (None, true)
  in
  ({ refs_eval; parse_ms = 1000.0 *. mean parse_s; warm_dir }, now (), warm_ok && fill_ok)

(* ---- the timed window ---- *)

type pass = { samples : sample list; pass_s : float }

(* flow_warm must never interpret or miss: each flow is a pure replay
   of the filled disk tier.  A flow that does is failed. *)
let bypass_ok (smp : sample) =
  smp.after.runs = smp.before.runs && smp.after.cache.Cache.misses = smp.before.cache.Cache.misses

(* One pass runs every app once, in a seeded order.  flow_cold starts
   each pass on a fresh cache directory; flow_warm clears the memory
   tier before every flow. *)
let run_pass cfg st s ~pass ~traced =
  let t0 = now () in
  let cold_dir = Filename.concat cfg.work (Printf.sprintf "cold-%d" pass) in
  if s.warm_dir = None then begin
    Cache.set_dir (Some cold_dir);
    Cache.clear_memory ()
  end;
  let samples =
    List.map
      (fun slug ->
        if cfg.warm then Cache.clear_memory ();
        let smp = run_flow ~traced ~expected:(List.assoc slug s.refs_eval) slug in
        if cfg.warm && not (bypass_ok smp) then begin
          log "%s: flow_warm interpreted or missed the cache" slug;
          { smp with ok = false }
        end
        else smp)
      (shuffle st apps)
  in
  if s.warm_dir = None then begin
    Cache.set_dir None;
    rm_rf cold_dir
  end;
  { samples; pass_s = now () -. t0 }

(* Nominal pass time on a 2-core host: a run makes [seconds / pass_s]
   passes, so every run of a workload does the same work. *)
let nominal_pass_s cfg = if cfg.warm then 0.05 else 10.0

(* The run's fixed number of passes, at least one; a traced run
   alternates untraced and traced passes, so it makes an even number.
   Should the program get much slower, no pass starts after three times
   the nominal window. *)
let measure cfg s =
  let st = Random.State.make [| cfg.seed |] in
  let n = max 1 (Float.to_int (Float.round (cfg.seconds /. nominal_pass_s cfg))) in
  let n = if cfg.trace then 2 * ((n + 1) / 2) else n in
  let t_start = now () in
  let rec loop pass acc =
    let late = now () -. t_start > 3.0 *. cfg.seconds && not (cfg.trace && pass mod 2 = 1) in
    if pass >= n || (pass > 0 && late) then List.rev acc
    else loop (pass + 1) (run_pass cfg st s ~pass ~traced:(cfg.trace && pass mod 2 = 1) :: acc)
  in
  loop 0 []

(* ---- derived checks and metrics ---- *)

let d_int f a b = float_of_int (f b - f a)

let cache_delta (smp : sample) f = d_int (fun c -> f c.cache) smp.before smp.after

(* VM coverage must not depend on how many flows ran before: every
   cold pass interprets the same programs, so its statement and
   planned-statement totals must be identical. *)
let coverage_by_pass passes =
  List.map
    (fun p ->
      let tot f = List.fold_left (fun acc smp -> acc +. d_int f smp.before smp.after) 0.0 p.samples in
      (tot (fun c -> c.steps), tot (fun c -> c.planned)))
    passes

(* Statements per second of a direct Machine.run on each app's
   evaluation program, with the profiling a flow's analyses turn on,
   and with the default configuration. *)
let statements_per_s ~profiled =
  let steps, secs =
    List.fold_left
      (fun (st, se) slug ->
        let app = app_of slug in
        let config =
          {
            Machine.default_config with
            Machine.overrides = App.machine_overrides app.App.app_eval_overrides;
            profile_loops = profiled;
            regions = (if profiled then [ Machine.Rfunc "main" ] else []);
            trace_aliases = profiled;
          }
        in
        let program = App.program app in
        let t0 = now () in
        let r = Machine.run ~config program in
        (st + r.Machine.counters.Counters.steps, se +. (now () -. t0)))
      (0, 0.0) apps
  in
  float_of_int steps /. secs

let e2e_of_passes ~setup_s passes =
  let samples = List.concat_map (fun p -> p.samples) passes in
  let ok = List.filter (fun smp -> smp.ok) samples in
  end_to_end ~setup_s
    ~latencies:(List.map (fun smp -> (smp.app, if smp.ok then smp.secs else failed_s)) samples)
    ~flows_per_s:(float_of_int (List.length ok) /. sum (List.map (fun p -> p.pass_s) passes))
    ~rss_mb:(vmhwm_mb "self")

let per_layer cfg s ~failed_frac samples =
  let n = float_of_int (max 1 (List.length samples)) in
  let total f = List.fold_left (fun acc smp -> acc +. f smp) 0.0 samples in
  let per_flow f = total f /. n in
  let cache f = per_flow (fun smp -> cache_delta smp f) in
  let counter name = per_flow (fun smp -> instrument_delta smp.before smp.after name) in
  let traced = List.filter (fun smp -> smp.traced) samples in
  let per_traced key =
    ratio
      (List.fold_left (fun acc smp -> acc +. Option.value ~default:0.0 (List.assoc_opt key smp.spans)) 0.0 traced)
      (float_of_int (List.length traced))
  in
  let steps = total (fun smp -> d_int (fun c -> c.steps) smp.before smp.after) in
  let runs = total (fun smp -> d_int (fun c -> c.runs) smp.before smp.after) in
  let hits = cache (fun c -> c.Cache.mem_hits + c.Cache.disk_hits) in
  let misses = cache (fun c -> c.Cache.misses) in
  (* traced against untraced time of the same apps, pass for pass *)
  let time_of tr = total (fun smp -> if smp.traced = tr then smp.secs else 0.0) in
  [
    ("failed_frac", failed_frac);
    ("srclang.parse_ms", s.parse_ms);
    ("interp.runs", runs /. n);
    ("interp.steps", steps /. n);
    ("interp.busy_s", per_flow (fun smp -> smp.after.busy -. smp.before.busy));
    ("interp.vm_coverage", ratio (total (fun smp -> d_int (fun c -> c.planned) smp.before smp.after)) steps);
    ("interp.bail_sites", if runs > 0.0 then float_of_int (List.length (Machine.plan_bail_sites ())) else 0.0);
    ("cache.hit_ratio", ratio hits (hits +. misses));
    ("cache.disk_hits", cache (fun c -> c.Cache.disk_hits));
    ("cache.misses", misses);
    ("cache.bytes_read", cache (fun c -> c.Cache.bytes_read));
    ("cache.bytes_written", cache (fun c -> c.Cache.bytes_written));
    ("cache.corrupt", cache (fun c -> c.Cache.corrupt));
    ("cache.errors", cache (fun c -> c.Cache.errors));
    ("cache.self_s", per_traced "cache-lookup");
    ("flow.tasks", counter "flow.task.seconds");
    ("dse.points", counter "dse.point.seconds");
    ("dse.point_p50_ms", median (List.concat_map (fun smp -> smp.dse_ms) traced));
    ("dse.self_s", per_traced "dse-point");
    ("pool.spawned", counter "pool.spawned");
    ("pool.steals", counter "pool.steals");
    ("pool.idle_s", counter "pool.idle_ns" /. 1e9);
    ("obs.trace_overhead_frac", ratio (time_of true -. time_of false) (time_of false));
  ]
  @ List.map (fun k -> ("flow.task_self_s." ^ k, per_traced ("task:" ^ k)))
      [ "analysis"; "transform"; "codegen"; "optimisation" ]
  @ List.map
      (fun p -> ("flow.phase_s." ^ p, per_flow (fun smp -> List.assoc p smp.phases)))
      phase_names
  @
  if cfg.warm then []
  else
    [
      ("interp.profiled_sps", statements_per_s ~profiled:true);
      ("interp.plain_sps", statements_per_s ~profiled:false);
    ]

(* Set-up time is the median over [earlier] set-ups (separate processes
   that stop once ready) and this one, each from process spawn until
   the first timed flow can start. *)
let run cfg ~units ~spawn_ts ~earlier ~setup_only =
  mkdir_p cfg.work;
  let s, ready, setup_ok = setup cfg in
  let setup_s = median ((ready -. spawn_ts) :: earlier) in
  if setup_only then begin
    if not setup_ok then die "set-up flow differs from its reference";
    Printf.printf "{\"setup_s\":%.17g}\n" (ready -. spawn_ts)
  end
  else begin
    let passes = measure cfg s in
    let samples = List.concat_map (fun p -> p.samples) passes in
    let failed = List.length (List.filter (fun smp -> not smp.ok) samples) in
    let coverage = coverage_by_pass passes in
    let coverage_ok =
      match coverage with [] -> true | c :: rest -> List.for_all (( = ) c) rest
    in
    (match coverage with
     | (st, pl) :: _ when st > 0.0 ->
       log "vm coverage of %d passes: %.0f / %.0f statements planned"
         (List.length coverage) pl st
     | _ -> ());
    if not coverage_ok then log "vm coverage differs between passes";
    let attempted = List.length samples in
    let failed_frac = float_of_int failed /. float_of_int attempted in
    let correct = setup_ok && failed = 0 && coverage_ok in
    if cfg.trace then
      emit ~correct ~attempted ~failed ~units (per_layer cfg s ~failed_frac samples)
    else emit ~correct ~attempted ~failed ~units (e2e_of_passes ~setup_s passes)
  end;
  Cache.set_dir None;
  rm_rf cfg.work
