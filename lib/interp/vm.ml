(* The superinstruction VM backend: lower the program's canonical loops to
   the typed flat IR (bounds-elided cursors, fused opcode pairs, batched
   step/counter accounting), then run the closure compiler with the plan
   installed.  Loops the lowering rejects — and any planned loop whose
   runtime guard declines (aliasing, step budget, ...) — execute on the
   reference compiled closures, so the backend is observably identical to
   [Compile.run] and [Walker.run] on every program.

   Runs that profile regions get region-tracked plans, whose accesses mark
   the active frames' footprints; [Rstmt] statements stay unplanned.  An
   ill-typed program gets no plan at all and runs on the walker, which is
   recorded as an ["ill-typed"] bail site so the miss shows up in
   [--explain]. *)

let plan_of (cfg : Interp_rt.config) (p : Ast.program) : Ir.plan option =
  let region_sids =
    List.filter_map
      (function Interp_rt.Rstmt sid -> Some sid | Interp_rt.Rfunc _ -> None)
      cfg.Interp_rt.regions
  in
  Ir_lower.plan ~region_sids ~tracked:(cfg.Interp_rt.regions <> [])
    ~on_ill_typed:(fun loc -> Fastloop.record_bail loc "ill-typed")
    p

let run (config : Interp_rt.config) (p : Ast.program) : Interp_rt.result =
  Compile.run ?plan:(plan_of config p) config p
