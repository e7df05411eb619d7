(* The benchmark executable; perfbench/run.py builds and runs it.

     pb.exe flow  --workload flow_cold|flow_warm --seed N --seconds S
                  --trace 0|1 --catalogue BENCHMARK.json --refs DIR
                  --work DIR --spawn-ts T
                  [--earlier S1,S2,...] [--setup-only]
     pb.exe serve --seed N --seconds S --trace 0|1 --catalogue BENCHMARK.json
                  --refs DIR --work DIR --daemon PSAFLOWD_EXE --setups K

   The last line of standard output is the result object, with the
   metrics that BENCHMARK.json lists under end_to_end (--trace 0) or
   per_layer (--trace 1); diagnostics go to standard error.  [--work] is
   a directory this run owns and removes when it is done. *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k && k <> "--setup-only" ->
      opts ((k, v) :: acc) rest
    | "--setup-only" :: rest -> opts (("--setup-only", "1") :: acc) rest
    | [] -> acc
    | x :: _ -> Pb_common.die "unexpected argument %s" x
  in
  let cmd, kvs =
    match args with c :: rest -> (c, opts [] rest) | [] -> Pb_common.die "usage: pb.exe flow|serve ..."
  in
  let str k = match List.assoc_opt k kvs with Some v -> v | None -> Pb_common.die "missing %s" k in
  let num conv k = match conv (str k) with Some v -> v | None -> Pb_common.die "bad %s" k in
  let seed = num int_of_string_opt "--seed" and seconds = num float_of_string_opt "--seconds" in
  let trace = str "--trace" = "1" and refs = str "--refs" and work = str "--work" in
  let units = Pb_common.catalogue (str "--catalogue") (if trace then "per_layer" else "end_to_end") in
  match cmd with
  | "flow" ->
    let warm =
      match str "--workload" with
      | "flow_cold" -> false
      | "flow_warm" -> true
      | w -> Pb_common.die "unknown flow workload %s" w
    in
    let earlier =
      match List.assoc_opt "--earlier" kvs with
      | None | Some "" -> []
      | Some s -> List.map float_of_string (String.split_on_char ',' s)
    in
    Pb_flows.run
      { Pb_flows.warm; seed; seconds; trace; refs; work }
      ~units ~spawn_ts:(num float_of_string_opt "--spawn-ts")
      ~earlier ~setup_only:(List.mem_assoc "--setup-only" kvs)
  | "serve" ->
    Pb_serve.run
      {
        Pb_serve.seed;
        seconds;
        trace;
        refs;
        work;
        daemon = str "--daemon";
        setups = num int_of_string_opt "--setups";
      }
      ~units
  | c -> Pb_common.die "unknown command %s" c
