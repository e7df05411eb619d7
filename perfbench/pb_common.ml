(* Helpers shared by the flow and serve workloads: statistics, files,
   process memory, the committed walker references, flow specs, and the
   result line the benchmark prints. *)

let apps = [ "nbody"; "kmeans"; "adpredictor"; "rush_larsen"; "bezier" ]

let now = Unix.gettimeofday

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("pb: " ^ s)) fmt

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("pb: " ^ s);
      exit 2)
    fmt

(* ---- statistics ---- *)

let sum xs = List.fold_left ( +. ) 0.0 xs

let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)

(* Linear interpolation between order statistics, [p] in [0, 100];
   [nan] on an empty list. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor r) in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile xs 50.0

let geomean xs = exp (mean (List.map Float.log xs))

let ratio a b = if b = 0.0 then 0.0 else a /. b

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ---- files ---- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Total size of the regular files under [dir] whose name satisfies
   [keep]. *)
let rec dir_bytes ?(keep = fun _ -> true) dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
    Array.fold_left
      (fun acc n ->
        let p = Filename.concat dir n in
        match Unix.lstat p with
        | { Unix.st_kind = Unix.S_DIR; _ } -> acc + dir_bytes ~keep p
        | { Unix.st_kind = Unix.S_REG; st_size; _ } when keep n -> acc + st_size
        | _ -> acc
        | exception Unix.Unix_error _ -> acc)
      0 names

(* Peak resident set ([VmHWM]) of a process, in MiB. *)
let vmhwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
        | _ -> acc)
      nan (String.split_on_char '\n' text)

(* ---- specs and references ---- *)

let mode_name = Pipeline.mode_name

let builtin ?budget ~quick mode slug =
  {
    Request.sp_source = Request.Builtin slug;
    sp_mode = mode;
    sp_quick = quick;
    sp_step_budget = budget;
    sp_jobs_hint = None;
  }

(* Committed reports rendered by the walker backend; perfbench/refs/regen.sh
   rebuilds them. *)
let ref_file ~quick mode slug =
  Printf.sprintf "%s.%s.%s.txt" slug (mode_name mode) (if quick then "quick" else "eval")

let load_ref ~refs ~quick mode slug =
  let path = Filename.concat refs (ref_file ~quick mode slug) in
  try read_file path with Sys_error msg -> die "missing reference report: %s" msg

let app_of slug =
  match Suite.find slug with Some a -> a | None -> die "unknown app %s" slug

(* ---- the result line ---- *)

(* The metric catalogue: the (name, unit) pairs of BENCHMARK.json's
   [end_to_end] or [per_layer] list. *)
let catalogue path key =
  let open Obs.Trace_json in
  let text = try read_file path with Sys_error msg -> die "%s" msg in
  match Result.map (member key) (parse text) with
  | Ok (Some (List entries)) ->
    List.map
      (fun m ->
        match (member "name" m, member "unit" m) with
        | Some (Str name), Some (Str unit) -> (name, unit)
        | _ -> die "%s: malformed %s entry" path key)
      entries
  | Ok _ -> die "%s: no %s list" path key
  | Error e -> die "%s: %s" path e

(* The latency, in seconds, that stands for a failed or refused
   operation: JSON has no infinity. *)
let failed_s = 1e6

(* A p99 is steady only with ten samples beyond it, so over at least
   1000 operations.  A run with fewer (flow_cold makes 15 flows) reports
   instead the p99 of its per-app medians, about the median of its
   slowest app. *)
let p99_min_ops = 1000

(* The end-to-end values of a run from its operations' (app, latency in
   seconds) pairs. *)
let end_to_end ~setup_s ~latencies ~flows_per_s ~rss_mb =
  let per_app =
    List.map
      (fun slug -> median (List.filter_map (fun (a, l) -> if a = slug then Some l else None) latencies))
      apps
  in
  let all = List.map snd latencies in
  [ ("setup_s", setup_s) ]
  @ List.map2 (fun slug v -> ("flow_p50_s." ^ slug, v)) apps per_app
  @ [
      ("flow_geomean_s", geomean per_app);
      ("request_p50_ms", 1000.0 *. median all);
      ( "request_p99_ms",
        1000.0 *. percentile (if List.length all >= p99_min_ops then all else per_app) 99.0 );
      ("flows_per_s", flows_per_s);
      ("peak_rss_mb", rss_mb);
    ]

let number buf v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.bprintf buf "%.0f" v
  else Printf.bprintf buf "%.17g" v

(* Print the final result line.  [values] maps metric names to values;
   every name of [units] is emitted, absent ones as 0 (a metric that
   does not apply to the workload) and non-finite ones as 0 with a note
   on stderr, since an applicable metric should always have a value. *)
let emit ~correct ~attempted ~failed ~units values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name units) then log "metric %s is not in the catalogue" name)
    values;
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{"
    correct attempted failed;
  List.iteri
    (fun i (name, unit) ->
      let v =
        match List.assoc_opt name values with
        | Some v when Float.is_finite v -> v
        | Some v ->
          log "metric %s is not finite (%g); reported as 0" name v;
          0.0
        | None -> 0.0
      in
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "%S:{\"value\":" name;
      number buf v;
      Printf.bprintf buf ",\"unit\":%S}" unit)
    units;
  Buffer.add_string buf "}}";
  print_endline (Buffer.contents buf)
