(* Compare two bench JSON dumps (written by main.exe --json) and fail on
   performance regressions.

   Usage: compare.exe CURRENT.json BASELINE.json
          compare.exe --warm-cold COLD.json WARM.json
          compare.exe --jobs-speedup JOBS1.json JOBSN.json

   The second form checks the evaluation cache's effectiveness: WARM must
   have been produced by rerunning the same bench against the cache
   directory COLD populated.  It requires the combined runs+micro+ablation
   wall time to drop at least 2x and the warm run to have actually served
   entries from the disk tier.

   The third form checks the work-stealing scheduler's effectiveness:
   both files must come from the same commit with the cache off, JOBS1
   run at --jobs 1 and JOBSN at --jobs 4 (or more).  It requires the
   combined runs+ablation wall time to drop at least 1.8x and the
   parallel run to have actually scheduled futures (pool.spawned > 0).
   The gate is skipped (exit 0) when the recording host reports fewer
   than 4 cores, where no such speedup is physically available.

   Gates (first form):
   - every wall-clock section present in both files may regress by at
     most 20% (lower is better);
   - every "statements_per_sec" entry present in both files may regress
     by at most 10% per backend (higher is better);
   - the current compiled-backend throughput must be at least 3x the
     baseline walker throughput (the committed seed's "ast" entry is the
     reference tree walker on the recording host);
   - the current vm-backend throughput must be at least 3x the current
     compiled-backend throughput (the superinstruction VM's reason to
     exist on the DSE hot path);
   - the VM's throughput on the float-demoted apps ("vm_sp") must be at
     least [vm_sp_floor] of its throughput on the double originals
     ("vm"), measured within the same run;
   - per-app VM step coverage ("vm_coverage": planned statements / total
     statements on the evaluation workloads) must hold absolute floors on
     the loop-nest apps — AdPredictor >= 0.9, K-Means >= 0.9, N-Body >=
     0.99 — and no app may drop more than 0.02 below its baseline
     coverage;
   - per-app flow-level VM coverage ("flow_vm_coverage": planned / all
     interpreted statements of a quick, cold, uninformed flow, profiled
     and region-tracked runs included) must hold absolute floors on every
     app, set from the measured values minus the same 0.02 slack.

   Exit status 1 on any violation, 0 otherwise.  The JSON reader below is
   a minimal recursive-descent parser for the subset bench emits (objects,
   strings, numbers, booleans); no external dependency. *)

type json =
  | Obj of (string * json) list
  | Num of float
  | Bool of bool
  | Str of string

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some 'n' -> Buffer.add_char b '\n'
         | Some 't' -> Buffer.add_char b '\t'
         | Some c -> Buffer.add_char b c
         | None -> fail "unterminated escape");
        advance ();
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some ('0' .. '9' | '-') -> Num (number ())
    | _ -> fail "unexpected character"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws ();
        let k = string_lit () in
        skip_ws ();
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          members ((k, v) :: acc)
        | Some '}' ->
          advance ();
          List.rev ((k, v) :: acc)
        | _ -> fail "expected ',' or '}'"
      in
      Obj (members [])
    end
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg ->
    Printf.eprintf "compare: cannot read %s: %s\n" path msg;
    exit 2
  | ic ->
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let num_members j =
  match j with
  | Obj fields ->
    List.filter_map (function k, Num f -> Some (k, f) | _ -> None) fields
  | _ -> []

let tolerance = 0.20

(* throughput is measured over tens of millions of statements, so it is
   far less noisy than wall-clock sections: gate each backend tighter *)
let throughput_tolerance = 0.10

(* sections this fast are dominated by scheduling noise; report but never
   gate on them *)
let section_floor_s = 0.05

(* absolute per-app floors for VM step coverage: the loop-nest lowering's
   reason to exist is keeping these apps' hot loops on the planned path *)
let coverage_floors =
  [ ("AdPredictor", 0.90);
    ("K-Means Classification", 0.90);
    ("N-Body Simulation", 0.99)
  ]

(* coverage is deterministic, so any drop is a real planning regression;
   the small slack only absorbs workload-mix changes between revisions *)
let coverage_slack = 0.02

(* absolute per-app floors for flow-level VM coverage: measured quick-flow
   coverage (N-Body 0.859, K-Means 0.979, AdPredictor 0.805, Rush Larsen
   0.971, Bezier 0.980) minus [coverage_slack], rounded down.  Keeps the
   flow's profiled and region-tracked runs on the planned path. *)
let flow_coverage_floors =
  [ ("N-Body Simulation", 0.83);
    ("K-Means Classification", 0.95);
    ("AdPredictor", 0.78);
    ("Rush Larsen ODE Solver", 0.95);
    ("Bezier Surface Generation", 0.96)
  ]

(* floor on vm_sp / vm.  Quick single-rep runs on a 2-core host
   measured 0.52-0.79 (median 0.62) with single-precision demotion
   inlined and fused, against 0.25-0.40 before; the floor sits between
   the two, so losing the single-precision fast path fails the gate *)
let vm_sp_floor = 0.45

let failures = ref 0

let report fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "FAIL  %s\n" msg)
    fmt

(* every parsed input, so a failing gate can say exactly which code and
   configuration produced each side *)
let parsed : (string * json) list ref = ref []

let parse path =
  match parse_json (read_file path) with
  | j ->
    parsed := !parsed @ [ (path, j) ];
    j
  | exception Parse_error msg ->
    Printf.eprintf "compare: %s: %s\n" path msg;
    exit 2

let print_meta () =
  List.iter
    (fun (path, j) ->
      match member "meta" j with
      | Some (Obj fields) ->
        Printf.printf "meta  %s:" path;
        List.iter
          (fun (k, v) ->
            let s =
              match v with
              | Str s -> s
              | Num f -> Printf.sprintf "%g" f
              | Bool b -> string_of_bool b
              | Obj _ -> "{..}"
            in
            Printf.printf " %s=%s" k s)
          fields;
        print_newline ()
      | _ -> Printf.printf "meta  %s: none recorded (pre-ledger dump)\n" path)
    !parsed

(* ---- warm/cold cache-effectiveness gate ---- *)

let warm_cold_sections = [ "runs"; "micro"; "ablation" ]

let warm_cold_speedup = 2.0

let run_warm_cold cold_path warm_path =
  let cold = parse cold_path in
  let warm = parse warm_path in
  let sections j = Option.fold ~none:[] ~some:num_members (member "sections" j) in
  let combined label j =
    List.fold_left
      (fun acc name ->
        match List.assoc_opt name (sections j) with
        | Some t -> acc +. t
        | None ->
          report "%s is missing section %S" label name;
          acc)
      0.0 warm_cold_sections
  in
  let cold_t = combined "cold run" cold in
  let warm_t = combined "warm run" warm in
  let ratio = if warm_t > 0.0 then cold_t /. warm_t else infinity in
  if ratio < warm_cold_speedup then
    report "warm %s only %.2fx faster than cold (%.3fs -> %.3fs, needs >= %.1fx)"
      (String.concat "+" warm_cold_sections)
      ratio cold_t warm_t warm_cold_speedup
  else
    Printf.printf "ok    warm %s %.3fs -> %.3fs (%.2fx >= %.1fx)\n"
      (String.concat "+" warm_cold_sections)
      cold_t warm_t ratio warm_cold_speedup;
  (* the speedup must come from the cache, not from noise *)
  let cache_stat j name =
    match member "cache" j with
    | Some c -> List.assoc_opt name (num_members c)
    | None -> None
  in
  (match cache_stat warm "disk_hits" with
   | Some h when h > 0.0 ->
     Printf.printf "ok    warm run served %.0f entries from the disk tier\n" h
   | Some _ | None -> report "warm run has no disk hits (cache not exercised)");
  (match cache_stat warm "errors" with
   | Some e when e > 0.0 -> Printf.printf "note  warm run logged %.0f cache errors\n" e
   | _ -> ());
  (match cache_stat warm "corrupt" with
   | Some e when e > 0.0 ->
     Printf.printf "note  warm run evicted %.0f corrupted cache entries\n" e
   | _ -> ())

(* ---- parallel-speedup gate ---- *)

(* micro and interp are single-domain by construction, so the scheduler
   gate only sums the sections that fan out over the pool *)
let jobs_sections = [ "runs"; "ablation" ]

let jobs_speedup = 1.8

(* below this the host cannot show a 1.8x four-way speedup even in
   principle; the gate degrades to an informational skip *)
let jobs_min_cores = 4.0

let run_jobs_speedup seq_path par_path =
  let seq = parse seq_path in
  let par = parse par_path in
  let top j name = member name j |> Option.map (function Num f -> f | _ -> nan) in
  (match top seq "jobs" with
   | Some j when j > 1.0 ->
     report "%s was recorded at --jobs %.0f (expected 1)" seq_path j
   | _ -> ());
  (match top par "jobs" with
   | Some j when j < jobs_min_cores ->
     report "%s was recorded at --jobs %.0f (expected >= %.0f)" par_path j
       jobs_min_cores
   | _ -> ());
  match top par "cores" with
  | Some cores when cores < jobs_min_cores ->
    Printf.printf
      "skip  host reports %.0f core%s (< %.0f): parallel speedup gate not applicable\n"
      cores
      (if cores = 1.0 then "" else "s")
      jobs_min_cores
  | _ ->
    let sections j = Option.fold ~none:[] ~some:num_members (member "sections" j) in
    let combined label j =
      List.fold_left
        (fun acc name ->
          match List.assoc_opt name (sections j) with
          | Some t -> acc +. t
          | None ->
            report "%s is missing section %S" label name;
            acc)
        0.0 jobs_sections
    in
    let seq_t = combined "jobs-1 run" seq in
    let par_t = combined "parallel run" par in
    let ratio = if par_t > 0.0 then seq_t /. par_t else infinity in
    if ratio < jobs_speedup then
      report "parallel %s only %.2fx faster than --jobs 1 (%.3fs -> %.3fs, needs >= %.1fx)"
        (String.concat "+" jobs_sections)
        ratio seq_t par_t jobs_speedup
    else
      Printf.printf "ok    parallel %s %.3fs -> %.3fs (%.2fx >= %.1fx)\n"
        (String.concat "+" jobs_sections)
        seq_t par_t ratio jobs_speedup;
    (* the speedup must come from the scheduler, not from noise *)
    let metric j name =
      match member "metrics" j with
      | Some m -> List.assoc_opt name (num_members m)
      | None -> None
    in
    (match metric par "pool.spawned" with
     | Some n when n > 0.0 ->
       Printf.printf "ok    parallel run spawned %.0f futures" n;
       (match metric par "pool.steals" with
        | Some s -> Printf.printf " (%.0f stolen)\n" s
        | None -> print_newline ())
     | Some _ | None ->
       report "parallel run spawned no futures (scheduler not exercised)")

(* ---- seed-baseline regression gate ---- *)

let run_regressions current_path baseline_path =
  let current = parse current_path in
  let baseline = parse baseline_path in
  (* wall-clock sections: lower is better *)
  let cur_sections = Option.fold ~none:[] ~some:num_members (member "sections" current) in
  let base_sections =
    Option.fold ~none:[] ~some:num_members (member "sections" baseline)
  in
  List.iter
    (fun (name, base_t) ->
      match List.assoc_opt name cur_sections with
      | None -> ()
      | Some cur_t ->
        if Float.max base_t cur_t < section_floor_s then
          Printf.printf "ok    section %-10s %.3fs -> %.3fs (below noise floor)\n" name
            base_t cur_t
        else if base_t > 0.0 && cur_t > base_t *. (1.0 +. tolerance) then
          report "section %-10s %.3fs -> %.3fs (+%.0f%%, limit +%.0f%%)" name base_t
            cur_t
            ((cur_t /. base_t -. 1.0) *. 100.0)
            (tolerance *. 100.0)
        else
          Printf.printf "ok    section %-10s %.3fs -> %.3fs\n" name base_t cur_t)
    base_sections;
  (* interpreter throughput: higher is better *)
  let cur_tp =
    Option.fold ~none:[] ~some:num_members (member "statements_per_sec" current)
  in
  let base_tp =
    Option.fold ~none:[] ~some:num_members (member "statements_per_sec" baseline)
  in
  List.iter
    (fun (name, base_sps) ->
      match List.assoc_opt name cur_tp with
      | None -> ()
      | Some cur_sps ->
        if base_sps > 0.0 && cur_sps < base_sps *. (1.0 -. throughput_tolerance)
        then
          report "throughput %-8s %.2e -> %.2e stmts/s (%.0f%%, limit -%.0f%%)" name
            base_sps cur_sps
            ((cur_sps /. base_sps -. 1.0) *. 100.0)
            (throughput_tolerance *. 100.0)
        else
          Printf.printf "ok    throughput %-8s %.2e -> %.2e stmts/s\n" name base_sps
            cur_sps)
    base_tp;
  (* the compiled backend must hold its >= 3x win over the seed walker *)
  (match List.assoc_opt "ast" base_tp, List.assoc_opt "compiled" cur_tp with
   | Some base_ast, Some cur_compiled when base_ast > 0.0 ->
     let ratio = cur_compiled /. base_ast in
     if ratio < 3.0 then
       report "compiled backend only %.2fx the seed walker (needs >= 3x)" ratio
     else Printf.printf "ok    compiled backend %.2fx the seed walker (>= 3x)\n" ratio
   | _ -> ());
  (* and the VM must hold its >= 3x win over the compiled closures,
     measured within the same run so host speed cancels out *)
  (match List.assoc_opt "compiled" cur_tp, List.assoc_opt "vm" cur_tp with
   | Some cur_compiled, Some cur_vm when cur_compiled > 0.0 ->
     let ratio = cur_vm /. cur_compiled in
     if ratio < 3.0 then
       report "vm backend only %.2fx the compiled backend (needs >= 3x)" ratio
     else
       Printf.printf "ok    vm backend %.2fx the compiled backend (>= 3x)\n" ratio
   | _ -> ());
  (* single-precision parity: the float-demoted apps keep most of the
     VM's speed, again within one run *)
  (match List.assoc_opt "vm" cur_tp, List.assoc_opt "vm_sp" cur_tp with
   | Some cur_vm, Some cur_vm_sp when cur_vm > 0.0 ->
     let ratio = cur_vm_sp /. cur_vm in
     if ratio < vm_sp_floor then
       report "vm on float-demoted apps only %.2fx its double throughput (needs >= %.2f)"
         ratio vm_sp_floor
     else
       Printf.printf "ok    vm on float-demoted apps %.2fx its double throughput (>= %.2f)\n"
         ratio vm_sp_floor
   | _ -> ());
  (* VM step coverage: absolute floors on the loop-nest apps ... *)
  let cur_cov =
    Option.fold ~none:[] ~some:num_members (member "vm_coverage" current)
  in
  if cur_cov <> [] then begin
    List.iter
      (fun (name, floor) ->
        match List.assoc_opt name cur_cov with
        | None -> report "vm coverage is missing app %S" name
        | Some c ->
          if c < floor then
            report "vm coverage %-26s %.3f (needs >= %.2f)" name c floor
          else Printf.printf "ok    vm coverage %-26s %.3f (>= %.2f)\n" name c floor)
      coverage_floors;
    (* ... and no regression against the recorded baseline for any app *)
    let base_cov =
      Option.fold ~none:[] ~some:num_members (member "vm_coverage" baseline)
    in
    List.iter
      (fun (name, base_c) ->
        match List.assoc_opt name cur_cov with
        | None -> report "vm coverage dropped app %S (baseline %.3f)" name base_c
        | Some cur_c ->
          if cur_c < base_c -. coverage_slack then
            report "vm coverage %-26s %.3f -> %.3f (limit -%.2f)" name base_c cur_c
              coverage_slack
          else if not (List.mem_assoc name coverage_floors) then
            Printf.printf "ok    vm coverage %-26s %.3f -> %.3f\n" name base_c cur_c)
      base_cov
  end;
  (* flow-level VM coverage: absolute floors on every app *)
  let cur_flow_cov =
    Option.fold ~none:[] ~some:num_members (member "flow_vm_coverage" current)
  in
  if cur_flow_cov <> [] then
    List.iter
      (fun (name, floor) ->
        match List.assoc_opt name cur_flow_cov with
        | None -> report "flow vm coverage is missing app %S" name
        | Some c ->
          if c < floor then
            report "flow vm coverage %-26s %.3f (needs >= %.2f)" name c floor
          else
            Printf.printf "ok    flow vm coverage %-26s %.3f (>= %.2f)\n" name c floor)
      flow_coverage_floors

let () =
  (match Sys.argv with
   | [| _; "--warm-cold"; cold; warm |] -> run_warm_cold cold warm
   | [| _; "--jobs-speedup"; seq; par |] -> run_jobs_speedup seq par
   | [| _; current; baseline |] -> run_regressions current baseline
   | _ ->
     prerr_endline
       "usage: compare.exe CURRENT.json BASELINE.json\n\
       \       compare.exe --warm-cold COLD.json WARM.json\n\
       \       compare.exe --jobs-speedup JOBS1.json JOBSN.json";
     exit 2);
  if !failures > 0 then begin
    print_meta ();
    Printf.printf "%d violation%s detected\n" !failures
      (if !failures = 1 then "" else "s");
    exit 1
  end
  else print_endline "all gates passed"
