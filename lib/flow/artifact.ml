type design_state = {
  ds_target : Target.t;
  ds_manage_fn : string;
  ds_compute_fn : string;
  ds_body_fn : string option;
  ds_thread_index : string option;
  ds_sp : bool;
  ds_kprofile : Kprofile.t option;
  ds_kstatic : Kstatic.t option;
  ds_estimate_s : float option;
  ds_feasible : bool;
  ds_output : string list option;
}

type t = {
  art_app : App.t;
  art_workload : (string * int) list;
  art_program : Ast.program;
  art_kernel : string option;
  art_hotspot_sid : int option;
  art_hotspots : Hotspot.hotspot list option;
  art_kprofile : Kprofile.t option;
  art_alias_free : bool option;
  art_intensity : Intensity.measure option;
  art_t_cpu_single : float option;
  art_t_transfer : float option;
  art_reference_output : string list option;
  art_design : design_state option;
  art_log : string list;
  art_prov : Prov.step list;
  art_step_budget : int option;
}

let create app ~workload =
  {
    art_app = app;
    art_workload = workload;
    art_program = App.program app;
    art_kernel = None;
    art_hotspot_sid = None;
    art_hotspots = None;
    art_kprofile = None;
    art_alias_free = None;
    art_intensity = None;
    art_t_cpu_single = None;
    art_t_transfer = None;
    art_reference_output = None;
    art_design = None;
    art_log = [];
    art_prov = [];
    art_step_budget = None;
  }

let machine_config t =
  let d = Machine.default_config in
  {
    d with
    overrides = App.machine_overrides t.art_workload;
    max_steps = Option.fold ~none:d.max_steps ~some:(min d.max_steps) t.art_step_budget;
  }

let log t line = { t with art_log = t.art_log @ [ line ] }

let add_prov t step = { t with art_prov = t.art_prov @ [ step ] }

let logf t fmt = Printf.ksprintf (log t) fmt

let kernel_exn t =
  match t.art_kernel with
  | Some k -> k
  | None -> failwith "artifact has no extracted kernel"

let kprofile_exn t =
  match t.art_kprofile with
  | Some kp -> kp
  | None -> failwith "artifact has no kernel profile"

let design_exn t =
  match t.art_design with
  | Some d -> d
  | None -> failwith "artifact has no design state"
