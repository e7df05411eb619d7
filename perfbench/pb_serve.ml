(* The serve_mixed workload: a forked psaflowd under a closed loop of
   nproc clients, spoken to over its Unix socket.

   Each client posts a request, polls GET /v1/flows/ID every [poll_s]
   until the request is terminal, then fetches its report.  The seeded
   mix has three classes:
   - hit: the ten built-in quick specs (5 apps x informed/uninformed),
     primed during set-up, so every one is a cache splice;
   - fresh: an app's source with its size constants redrawn between the
     test size and twice that, tagged so that no two are alike: every
     one is a cache miss;
   - budgeted: a hit spec carrying a step budget far above its need,
     which takes the daemon's exclusive dispatch path.
   Served reports of hit and budgeted requests must match the walker
   references byte for byte; a seeded sample of fresh ones is rerun on
   the walker in this process, outside the timed window. *)

open Pb_common

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  refs : string;
  work : string;
  daemon : string;
  setups : int;
}

let poll_s = 0.002

let budget = 100_000_000

let jobs () = Util.Pool.recommended_jobs ()

(* ---- HTTP over the daemon's socket, one request per connection ---- *)

let http sock text =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        Unix.connect fd (Unix.ADDR_UNIX sock);
        let rec send off =
          if off < String.length text then
            send (off + Unix.write_substring fd text off (String.length text - off))
        in
        send 0;
        let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
        let rec drain () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
        in
        drain ();
        let resp = Buffer.contents buf in
        let code =
          match String.split_on_char ' ' resp with
          | _ :: c :: _ -> Option.value ~default:0 (int_of_string_opt c)
          | _ -> 0
        in
        let body =
          let rec find i =
            if i + 4 > String.length resp then ""
            else if String.sub resp i 4 = "\r\n\r\n" then
              String.sub resp (i + 4) (String.length resp - i - 4)
            else find (i + 1)
          in
          find 0
        in
        (code, body)
      with Unix.Unix_error _ -> (0, ""))

let get sock path = http sock (Printf.sprintf "GET %s HTTP/1.1\r\nHost: pb\r\n\r\n" path)

let post sock path body =
  http sock
    (Printf.sprintf "POST %s HTTP/1.1\r\nHost: pb\r\nContent-Length: %d\r\n\r\n%s" path
       (String.length body) body)

let json_field name body =
  match Obs.Trace_json.parse body with
  | Ok j -> Obs.Trace_json.member name j
  | Error _ -> None

let str_field name body =
  match json_field name body with Some (Obs.Trace_json.Str s) -> s | _ -> ""

let int_field name body =
  match json_field name body with Some (Obs.Trace_json.Num n) -> int_of_float n | _ -> -1

(* The flattened Obs.Metrics snapshot the daemon serves. *)
let metrics sock =
  match Obs.Trace_json.parse (snd (get sock "/v1/metrics")) with
  | Ok (Obs.Trace_json.Obj kvs) ->
    List.filter_map (function k, Obs.Trace_json.Num v -> Some (k, v) | _ -> None) kvs
  | _ -> []

let metric m name = Option.value ~default:0.0 (List.assoc_opt name m)

let cache_sum m field =
  List.fold_left
    (fun acc (k, v) ->
      if String.starts_with ~prefix:"cache." k && String.ends_with ~suffix:("." ^ field) k then acc +. v
      else acc)
    0.0 m

(* ---- the request mix ---- *)

type cls = Hit | Fresh | Budgeted

let cls_name = function Hit -> "hit" | Fresh -> "fresh" | Budgeted -> "budgeted"

type req = {
  cls : cls;
  app : string;
  body : string;
  spec : Request.spec;
  expected : string option;  (** reference report, when one is committed *)
}

let modes = [ Pipeline.Informed; Pipeline.Uninformed ]

let hit_specs = List.concat_map (fun slug -> List.map (fun m -> (slug, m)) modes) apps

(* [refs] maps each hit spec to its reference report. *)
let hit_req refs ~client ?budget (slug, mode) =
  let spec = builtin ?budget ~quick:true mode slug in
  {
    cls = (if budget = None then Hit else Budgeted);
    app = slug;
    body = Serve.Codec.to_json ~client spec;
    spec;
    expected = Some (List.assoc (slug, mode) refs);
  }

(* Replace the value of [const int NAME = v;] in an app source. *)
let set_const text name v =
  let pat = Printf.sprintf "const int %s = " name in
  let pl = String.length pat in
  let rec find i =
    if i + pl > String.length text then die "no constant %s in app source" name
    else if String.sub text i pl = pat then i + pl
    else find (i + 1)
  in
  let start = find 0 in
  let stop = String.index_from text start ';' in
  String.sub text 0 start ^ string_of_int v ^ String.sub text stop (String.length text - stop)

(* An app's source with its test-workload constants scaled by [1 + u]
   for [u] in [0, 1], plus a constant unique to this request so that no
   two fresh programs share a cache key. *)
let fresh_source ~u ~tag (app : App.t) =
  let text =
    List.fold_left
      (fun text (name, test) -> set_const text name (test + int_of_float (u *. float_of_int test)))
      app.App.app_source app.App.app_test_overrides
  in
  Printf.sprintf "const int PB_FRESH_TAG = %d;\n%s" tag text

let fresh_req ~client ~tag ~u slug =
  let app = app_of slug in
  let name = Printf.sprintf "fresh_%s_%d" slug tag in
  let spec =
    {
      (builtin ~quick:true Pipeline.Uninformed slug) with
      Request.sp_source =
        Request.Inline { name; text = fresh_source ~u ~tag app; scale = app.App.app_outer_scale };
    }
  in
  { cls = Fresh; app = slug; body = Serve.Codec.to_json ~client spec; spec; expected = None }

(* Endless seeded cycling through [l]: each round is a fresh shuffle. *)
let cycle st l =
  let q = ref [] in
  fun () ->
    if !q = [] then q := shuffle st l;
    match !q with
    | x :: rest ->
      q := rest;
      x
    | [] -> assert false

(* The mix, per block of [block] requests.  Budgeted requests are 1 in
   8.  The fresh share s is set so that fresh requests take about half
   of the daemon's service time, from the latencies of single requests
   measured on a 2-core host (a hit about 4.5 ms, a fresh quick-size
   flow about 115 ms): s = 4.5 / (4.5 + 115) = 0.038, 3 in 80.  Then
   request_p50_ms falls in the hit class and request_p99_ms in the tail
   the fresh class makes (see README.md). *)
let block = 80

let block_budgeted = 10

let block_fresh = 3

(* The run's seeded request sequence; the clients share it, each taking
   the next request when its previous one is done.  It is stratified so
   that every run sees the same mix: each block holds its budgeted,
   fresh and hit requests in a shuffled order; hit and budgeted specs
   and fresh apps each cycle through shuffled rounds; and each app's
   fresh size factors cycle through the middles of three equal strata
   of [0, 1], so that the sizes a run covers do not depend on the
   seed. *)
let stream refs ~seed =
  let st = Random.State.make [| seed |] in
  let classes =
    cycle st
      (List.init block (fun i ->
           if i < block_budgeted then Budgeted else if i < block_budgeted + block_fresh then Fresh else Hit))
  in
  let next_hit = cycle st hit_specs and next_budgeted = cycle st hit_specs in
  let next_app = cycle st apps in
  let next_u = List.map (fun slug -> (slug, cycle st [ 1.0 /. 6.0; 0.5; 5.0 /. 6.0 ])) apps in
  let n = ref 0 in
  fun ~client ->
    incr n;
    match classes () with
    | Budgeted -> hit_req refs ~client ~budget (next_budgeted ())
    | Hit -> hit_req refs ~client (next_hit ())
    | Fresh ->
      let slug = next_app () in
      fresh_req ~client ~tag:!n ~u:(List.assoc slug next_u ()) slug

(* ---- one closed-loop request ---- *)

type result = {
  rq : req;
  ok : bool;
  code : int;  (** HTTP status of the POST *)
  lat : float;  (** POST sent until the report is fetched *)
  post_s : float;
  gets : float list;
  qwait : float option;  (** 202 until the first poll that sees it leave queued *)
  report : string;
}

let one sock rq =
  let t0 = now () in
  let code, body = post sock "/v1/flows" rq.body in
  let t1 = now () in
  let fail ?(gets = []) ?qwait () =
    { rq; ok = false; code; lat = failed_s; post_s = t1 -. t0; gets; qwait; report = "" }
  in
  let id = str_field "id" body in
  if code <> 202 || id = "" then begin
    log "%s request refused: HTTP %d %s" (cls_name rq.cls) code body;
    fail ()
  end
  else
    let rec poll gets qwait =
      Unix.sleepf poll_s;
      let g0 = now () in
      let gcode, b = get sock ("/v1/flows/" ^ id) in
      let g1 = now () in
      let gets = (g1 -. g0) :: gets in
      let state = str_field "state" b in
      let qwait = match qwait with None when state <> "queued" -> Some (g1 -. t1) | q -> q in
      if gcode <> 200 || state = "done" || state = "failed" || g1 -. t0 > 120.0 then
        (state, int_field "status" b, gets, qwait)
      else poll gets qwait
    in
    let state, status, gets, qwait = poll [] None in
    let rcode, report = if state = "done" then get sock ("/v1/flows/" ^ id ^ "/report") else (0, "") in
    let t_end = now () in
    let matches = match rq.expected with Some e -> String.equal e report | None -> true in
    let ok = state = "done" && status = 0 && rcode = 200 && matches in
    if not ok then
      log "%s %s: state %s status %d, report HTTP %d%s" (cls_name rq.cls) id state status rcode
        (if matches then "" else ", differs from reference");
    if ok then { rq; ok; code; lat = t_end -. t0; post_s = t1 -. t0; gets; qwait; report }
    else fail ~gets ?qwait ()

(* ---- the daemon ---- *)

type daemon = { pid : int; dir : string; sock : string; setup_s : float; primed : bool }

let live = ref []

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* Fork a daemon on fresh directories, wait for /healthz, and prime the
   cache with every hit spec; set-up time runs from the fork until the
   last priming report is in. *)
let start cfg ~refs k =
  let dir = Filename.concat cfg.work (Printf.sprintf "d%d" k) in
  mkdir_p dir;
  let sock = Filename.concat dir "d.sock" in
  let sub n = Filename.concat dir n in
  let out = Unix.openfile (sub "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let t0 = now () in
  let pid =
    Unix.create_process cfg.daemon
      [|
        cfg.daemon; "--socket"; sock; "--jobs"; string_of_int (jobs ()); "--rate"; "0";
        "--cache"; sub "cache"; "--ledger"; sub "ledger"; "--store"; sub "store";
      |]
      Unix.stdin out out
  in
  Unix.close out;
  live := pid :: !live;
  let rec wait_up () =
    if now () -. t0 > 60.0 then die "daemon did not come up (see %s)" (sub "daemon.log")
    else if fst (get sock "/healthz") <> 200 then begin
      Unix.sleepf 0.005;
      wait_up ()
    end
  in
  wait_up ();
  let primed = List.for_all (fun hs -> (one sock (hit_req refs ~client:"prime" hs)).ok) hit_specs in
  { pid; dir; sock; setup_s = now () -. t0; primed }

(* SIGTERM, reap, and check the drain's exit code. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] d.pid in
  live := List.filter (( <> ) d.pid) !live;
  match status with
  | Unix.WEXITED 0 -> true
  | Unix.WEXITED n ->
    log "daemon exited %d" n;
    false
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    log "daemon stopped by signal %d" n;
    false

(* ---- checks outside the window ---- *)

(* Hit specs are cache splices: replaying each once adds no miss. *)
let hit_bypass ~refs d =
  let before = cache_sum (metrics d.sock) "misses" in
  let ok = List.for_all (fun hs -> (one d.sock (hit_req refs ~client:"check" hs)).ok) hit_specs in
  let after = cache_sum (metrics d.sock) "misses" in
  if after <> before then log "hit class added %g cache misses" (after -. before);
  ok && after = before

(* A seeded sample of served fresh reports, recomputed on the walker. *)
let walker_check cfg results =
  let fresh = List.filter (fun r -> r.rq.cls = Fresh && r.ok) results in
  let st = Random.State.make [| cfg.seed; 7919 |] in
  let sample = List.filteri (fun i _ -> i < 3) (shuffle st fresh) in
  let backend = Machine.default_backend () in
  Machine.set_default_backend `Ast;
  let bad =
    List.filter
      (fun r ->
        let oc = Request.run r.rq.spec in
        let ok = oc.Request.oc_status = 0 && String.equal oc.Request.oc_text r.report in
        if not ok then log "fresh %s: served report differs from the walker's" r.rq.app;
        not ok)
      sample
  in
  Machine.set_default_backend backend;
  (List.length sample, List.length bad)

(* App.program time on the built-in sources and on a sample of inline
   ones drawn like the fresh class. *)
let parse_ms () =
  let builtins = List.map app_of apps in
  let inline =
    List.init 20 (fun i ->
        let app = app_of (List.nth apps (i mod List.length apps)) in
        let u = float_of_int (i mod 3) /. 2.0 in
        { app with App.app_source = fresh_source ~u ~tag:i app })
  in
  let times =
    List.map
      (fun app ->
        let t0 = now () in
        ignore (App.program app);
        (now () -. t0) *. 1000.0)
      (builtins @ inline)
  in
  mean times

(* ---- the run ---- *)

(* Nominal closed-loop throughput on a 2-core host: a run makes
   [seconds * nominal_rps] requests, rounded up to whole rounds of the
   fresh class (every app at each of its three sizes), so every run
   sends the same requests of each class, in a seeded order.  Should the
   daemon get much slower, no request starts after three times the
   nominal window. *)
let nominal_rps = 40.0

(* Requests per round of the fresh class, whose 15 requests are the 5
   apps at 3 sizes each. *)
let round = block * List.length apps * 3 / block_fresh

let measure cfg ~refs d =
  let results = ref [] in
  let lock = Mutex.create () in
  let total = round * max 1 (Float.to_int (Float.ceil (cfg.seconds *. nominal_rps /. float_of_int round))) in
  let next = stream refs ~seed:cfg.seed in
  let taken = ref 0 in
  let t_start = now () in
  let take client =
    Mutex.protect lock (fun () ->
        if !taken < total && now () -. t_start < 3.0 *. cfg.seconds then begin
          incr taken;
          Some (next ~client)
        end
        else None)
  in
  let client c =
    let client = Printf.sprintf "c%d" c in
    let rec loop () =
      match take client with
      | Some rq ->
        let r = one d.sock rq in
        Mutex.protect lock (fun () -> results := (r, now ()) :: !results);
        loop ()
      | None -> ()
    in
    loop ()
  in
  let threads = List.init (jobs ()) (fun c -> Thread.create client c) in
  List.iter Thread.join threads;
  let t_last = List.fold_left (fun acc (_, t) -> Float.max acc t) t_start !results in
  (List.rev_map fst !results, t_last -. t_start)

let run cfg ~units =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  at_exit kill_live;
  Util.Pool.set_default_jobs (jobs ());
  mkdir_p cfg.work;
  let parse_ms = parse_ms () in
  let refs =
    List.map (fun (slug, mode) -> ((slug, mode), load_ref ~refs:cfg.refs ~quick:true mode slug)) hit_specs
  in
  (* every set-up but the last is torn down again; the last one serves *)
  let rec setups k acc =
    let d = start cfg ~refs k in
    if k + 1 >= cfg.setups then (d, d :: acc)
    else begin
      let stopped = stop d in
      rm_rf d.dir;
      setups (k + 1) ({ d with primed = d.primed && stopped } :: acc)
    end
  in
  let d, all = setups 0 [] in
  let setup_s = median (List.map (fun d -> d.setup_s) all) in
  let setup_ok = List.for_all (fun d -> d.primed) all in
  let m0 = metrics d.sock in
  let results, window = measure cfg ~refs d in
  let m1 = metrics d.sock in
  let bypass = hit_bypass ~refs d in
  let rss = vmhwm_mb (string_of_int d.pid) in
  let served = List.length results + (2 * List.length hit_specs) in
  let per_req name = ratio (metric m1 name -. metric m0 name) (float_of_int (List.length results)) in
  let store = Filename.concat d.dir "store" in
  let is_journal n = Filename.check_suffix n ".journal.jsonl" in
  let ledger_b = dir_bytes (Filename.concat d.dir "ledger") in
  let journal_b = dir_bytes ~keep:is_journal store in
  let store_b = dir_bytes ~keep:(fun n -> not (is_journal n)) store in
  let drained = stop d in
  let checked, bad = walker_check cfg results in
  log "serve_mixed: poll interval %.0f ms, %d clients, %d requests, walker-checked %d fresh"
    (poll_s *. 1000.0) (jobs ()) (List.length results) checked;
  (* which classes request_p99_ms is made of *)
  let slowest =
    List.filteri (fun i _ -> i < List.length results / 100)
      (List.sort (fun a b -> compare b.lat a.lat) results)
  in
  log "slowest 1%%, ms: %s"
    (String.concat ", "
       (List.map (fun r -> Printf.sprintf "%s %.0f" (cls_name r.rq.cls) (r.lat *. 1000.0)) slowest));
  let attempted = List.length results + checked in
  let failed = List.length (List.filter (fun r -> not r.ok) results) + bad in
  let correct = setup_ok && bypass && drained && failed = 0 in
  let ms xs p = 1000.0 *. percentile xs p in
  let cls_p50 c = ms (List.filter_map (fun r -> if r.rq.cls = c then Some r.lat else None) results) 50.0 in
  let ok_n = List.length (List.filter (fun r -> r.ok) results) in
  if cfg.trace then begin
    let cdelta field = ratio (cache_sum m1 field -. cache_sum m0 field) (float_of_int (List.length results)) in
    let hits = cdelta "mem_hits" +. cdelta "disk_hits" in
    let qwaits = List.filter_map (fun r -> r.qwait) results in
    emit ~correct ~attempted ~failed ~units
      [
        ("failed_frac", ratio (float_of_int failed) (float_of_int attempted));
        ("srclang.parse_ms", parse_ms);
        ("interp.runs", per_req "interp.runs");
        ("interp.steps", per_req "interp.steps");
        ("interp.busy_s", per_req "interp.seconds");
        ("interp.vm_coverage", ratio (per_req "vm.steps.planned") (per_req "interp.steps"));
        ("cache.hit_ratio", ratio hits (hits +. cdelta "misses"));
        ("cache.disk_hits", cdelta "disk_hits");
        ("cache.misses", cdelta "misses");
        ("cache.bytes_read", cdelta "bytes_read");
        ("cache.bytes_written", cdelta "bytes_written");
        ("cache.corrupt", cdelta "corrupt");
        ("cache.errors", cdelta "errors");
        ("flow.tasks", per_req "flow.task.seconds.count");
        ("dse.points", per_req "dse.point.seconds.count");
        ("dse.point_p50_ms", 1000.0 *. metric m1 "dse.point.seconds.p50");
        ("pool.spawned", per_req "pool.spawned");
        ("pool.steals", per_req "pool.steals");
        ("pool.idle_s", per_req "pool.idle_ns" /. 1e9);
        ("obs.ledger_bytes_per_req", float_of_int ledger_b /. float_of_int served);
        ("obs.journal_bytes_per_req", float_of_int journal_b /. float_of_int served);
        ("serve.post_ms.p50", ms (List.map (fun r -> r.post_s) results) 50.0);
        ("serve.post_ms.p99", ms (List.map (fun r -> r.post_s) results) 99.0);
        ("serve.get_ms.p99", ms (List.concat_map (fun r -> r.gets) results) 99.0);
        ("serve.service_s.p50", metric m1 "serve.request.seconds.p50");
        ("serve.service_s.p99", metric m1 "serve.request.seconds.p99");
        ("serve.queue_wait_ms.p50", ms qwaits 50.0);
        ("serve.queue_wait_ms.p99", ms qwaits 99.0);
        ("serve.latency_ms.p50.hit", cls_p50 Hit);
        ("serve.latency_ms.p50.fresh", cls_p50 Fresh);
        ("serve.latency_ms.p50.budgeted", cls_p50 Budgeted);
        ("serve.store_bytes_per_req", float_of_int store_b /. float_of_int served);
        ("serve.shed", metric m1 "serve.shed" -. metric m0 "serve.shed");
        ("serve.malformed", metric m1 "serve.malformed" -. metric m0 "serve.malformed");
      ]
  end
  else
    emit ~correct ~attempted ~failed ~units
      (end_to_end ~setup_s
         ~latencies:(List.map (fun r -> (r.rq.app, r.lat)) results)
         ~flows_per_s:(float_of_int ok_n /. window) ~rss_mb:rss);
  rm_rf cfg.work
