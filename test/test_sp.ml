(* Single-precision exactness of the VM.

   The VM demotes through a per-nest float32 scratch instead of the Int32
   round trip of [Ir.demote], skips demotion of operands the lowering
   knows are already single, and fuses single-precision op pairs into
   superinstructions.  Each of these must be invisible: the properties
   below check the scratch demotion bit for bit against [Value.demote]
   (NaN payloads included), every SP superinstruction against the
   unfused op sequence it replaces, and the lowering's demote placement
   and fusion on small kernels. *)

let check = Alcotest.(check bool)

let parse = Parser.parse_program

(* ---- float inputs that stress rounding ----

   Random doubles and random float32 values, plus the cases a narrowing
   conversion can get wrong: NaNs with arbitrary payloads and signs,
   infinities, signed zeros, double and float32 subnormals, values around
   the float32 overflow threshold, and exact ties halfway between two
   adjacent float32 values (round-half-to-even). *)

let f32_max = Int32.float_of_bits 0x7f7fffffl

let specials =
  [ 0.0; -0.0; infinity; neg_infinity; nan; Float.neg nan; 1.0; -1.0;
    Float.min_float; -.Float.min_float; 4.9e-324; -4.9e-324;
    Int32.float_of_bits 1l; Int32.float_of_bits 0x00800000l;
    Int32.float_of_bits 0x007fffffl; f32_max; -.f32_max;
    (* halfway between f32_max and 2^128: rounds to infinity *)
    f32_max +. Float.ldexp 1.0 103; Float.succ (f32_max +. Float.ldexp 1.0 103);
    Float.pred (f32_max +. Float.ldexp 1.0 103); 1e39; -1e39; Float.max_float ]

let gen_float : float QCheck.Gen.t =
  let open QCheck.Gen in
  let f32_bits = map Int32.float_of_bits ui32 in
  frequency
    [
      (2, oneofl specials);
      (3, map Int64.float_of_bits ui64);
      (2, f32_bits);
      (* NaN with a random payload and sign *)
      ( 1,
        map
          (fun m ->
            Int64.float_of_bits
              (Int64.logor 0x7ff0000000000001L (Int64.logand m 0x800fffffffffffffL)))
          ui64 );
      (* exact midpoint of two adjacent float32 values, and its neighbours *)
      ( 3,
        map2
          (fun k d ->
            let k = Int32.logand k 0x7f7ffffel in
            let x = Int32.float_of_bits k and y = Int32.float_of_bits (Int32.succ k) in
            let mid = (x +. y) /. 2.0 in
            match d with 0 -> mid | 1 -> Float.succ mid | _ -> Float.pred mid)
          ui32 (0 -- 2) );
      (2, map (fun x -> x *. 1e-40) (float_bound_inclusive 1.0));
      (2, float_bound_inclusive 1e6);
    ]

let show_float x = Printf.sprintf "%h (0x%Lx)" x (Int64.bits_of_float x)

let arb_float = QCheck.make gen_float ~print:show_float

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* ---- op-level harness ----

   A bare one-level nest with [nf] float registers and two cursors, each
   addressing element 0 of its own cell; [exec_ops] runs an op array
   through the VM's dispatch loop on it, exactly as a planned nest does. *)

let bare_loop nf : Ir.fast_loop =
  let cursor = { Ir.c_arr = 0; c_coefs = [| Ir.Iconst 0 |]; c_base = Ir.Iconst 0 } in
  {
    Ir.fl_sid = 0;
    fl_loc = Loc.dummy;
    fl_levels =
      [|
        {
          Ir.l_sid = 0;
          l_cle = false;
          l_lo = Ir.Iconst 0;
          l_lo_ops = 0;
          l_hi = Ir.Iconst 0;
          l_hi_ops = 0;
          l_step = Ir.Iconst 1;
          l_step_ops = 0;
          l_index_reg = None;
          l_body = { Ir.b_items = [||]; b_steps = 0; b_cnt = Ir.zero_counts () };
        };
      |];
    fl_sites = [||];
    fl_vars = [||];
    fl_arrs = [||];
    fl_cursors = [| cursor; cursor |];
    fl_prologue = [||];
    fl_epilogue = [||];
    fl_nf = nf;
    fl_ni = 1;
    fl_hoisted = [||];
    fl_promoted = [||];
    fl_tracked = false;
  }

let state =
  lazy (Interp_rt.make_state Machine.default_config (parse "int main() { return 0; }"))

(* run [ops] with registers [regs] (copied) and cells [m0], [m1] (copied);
   returns the final registers and cells *)
let exec_ops ops regs m0 m1 =
  let nf = Array.length regs in
  match Fastloop.prepare (bare_loop nf) ~index_slot:0 ~lookup:(fun _ -> None) with
  | None -> Alcotest.fail "bare nest did not prepare"
  | Some p ->
    Array.blit regs 0 p.Fastloop.f 0 nf;
    let c0 = [| m0 |] and c1 = [| m1 |] in
    p.Fastloop.cfdata.(0) <- c0;
    p.Fastloop.cfdata.(1) <- c1;
    Fastloop.exec p (Lazy.force state) ops;
    (Array.copy p.Fastloop.f, c0.(0), c1.(0))

let prop_demote_exact =
  QCheck.Test.make ~name:"vm demotion equals Value.demote bit for bit" ~count:2000
    arb_float (fun x ->
      let want = Value.demote x in
      let scratch = Fastloop.f32_scratch () in
      let regs, _, _ = exec_ops [| Ir.FDem (1, 0) |] [| x; 0.0 |] 0.0 0.0 in
      same_bits (Fastloop.demote scratch x) want && same_bits regs.(1) want)

(* Every SP superinstruction next to the unfused sequence the lowering
   would have emitted for it.  Registers: a = 0, b = 1, c = 2, temps 3-4,
   result 5; cursors 0 and 1. *)
let sp_fusions : (string * Ir.fop array * Ir.fop array) list =
  [
    ("FLdSubS", [| Ir.FLdSubS (5, 0, 1) |], [| Ir.FLd (3, 0); Ir.FSubS (5, 3, 1) |]);
    ( "FLdSub2S",
      [| Ir.FLdSub2S (5, 0, 1) |],
      [| Ir.FLd (3, 0); Ir.FLd (4, 1); Ir.FSubS (5, 3, 4) |] );
    ("FLdMulS", [| Ir.FLdMulS (5, 0, 1) |], [| Ir.FLd (3, 0); Ir.FMulS (5, 3, 1) |]);
    ("FLdAddS", [| Ir.FLdAddS (5, 0, 1) |], [| Ir.FLd (3, 0); Ir.FAddS (5, 3, 1) |]);
    ( "FMulAddS",
      [| Ir.FMulAddS (5, 0, 1, 2) |],
      [| Ir.FMulS (3, 0, 1); Ir.FAddS (5, 3, 2) |] );
    ( "FAddMulS",
      [| Ir.FAddMulS (5, 2, 0, 1) |],
      [| Ir.FMulS (3, 0, 1); Ir.FAddS (5, 2, 3) |] );
    ( "FSubMulS",
      [| Ir.FSubMulS (5, 2, 0, 1) |],
      [| Ir.FMulS (3, 0, 1); Ir.FSubS (5, 2, 3) |] );
    ("FRecipS", [| Ir.FRecipS (5, 0) |], [| Ir.FConst (3, 1.0); Ir.FDivS (5, 3, 0) |]);
    ( "FRsqrtS",
      [| Ir.FRsqrtS (5, 0) |],
      [| Ir.FMath1S (Ir.Msqrt, 3, 0); Ir.FConst (4, 1.0); Ir.FDivS (5, 4, 3) |] );
    ( "FAccStS",
      [| Ir.FAccStS (0, 1) |],
      [| Ir.FLd (3, 0); Ir.FAddS (4, 3, 1); Ir.FSt (0, 4) |] );
    ( "FMulAccStS",
      [| Ir.FMulAccStS (0, 0, 1) |],
      [| Ir.FMulS (3, 0, 1); Ir.FLd (4, 0); Ir.FAddS (5, 4, 3); Ir.FSt (0, 5) |] );
  ]

let prop_sp_fusions_exact =
  let arb =
    QCheck.make
      QCheck.Gen.(
        pair (oneofl sp_fusions)
          (pair (triple gen_float gen_float gen_float) (pair gen_float gen_float)))
      ~print:(fun ((name, _, _), ((a, b, c), (m0, m1))) ->
        Printf.sprintf "%s a=%s b=%s c=%s m0=%s m1=%s" name (show_float a)
          (show_float b) (show_float c) (show_float m0) (show_float m1))
  in
  QCheck.Test.make ~name:"each SP superinstruction equals its unfused sequence"
    ~count:3000 arb (fun ((_, fused, unfused), ((a, b, c), (m0, m1))) ->
      let regs = [| a; b; c; 0.0; 0.0; 0.0 |] in
      let rf, f0, f1 = exec_ops fused regs m0 m1 in
      let ru, u0, u1 = exec_ops unfused regs m0 m1 in
      (* the result register when the op defines one, and memory *)
      let result_ok =
        match fused.(0) with
        | Ir.FAccStS _ | Ir.FMulAccStS _ -> true
        | _ -> same_bits rf.(5) ru.(5)
      in
      result_ok && same_bits f0 u0 && same_bits f1 u1)

(* ---- lowering ---- *)

let rec block_ops (fl : Ir.fast_loop) (b : Ir.block) : Ir.fop list =
  List.concat_map
    (function
      | Ir.Bops ops -> Array.to_list ops
      | Ir.Bsite sid ->
        let s = fl.Ir.fl_sites.(sid) in
        block_ops fl s.Ir.s_then @ block_ops fl s.Ir.s_else
      | Ir.Bloop lid -> block_ops fl fl.Ir.fl_levels.(lid).Ir.l_body)
    (Array.to_list b.Ir.b_items)

(* every op of a nest: prologue, body tree, epilogue *)
let nest_ops (fl : Ir.fast_loop) =
  Array.to_list fl.Ir.fl_prologue
  @ block_ops fl fl.Ir.fl_levels.(0).Ir.l_body
  @ Array.to_list fl.Ir.fl_epilogue

let plan_of p =
  match Ir_lower.plan p with
  | Some plan -> plan
  | None -> Alcotest.fail "program should typecheck"

(* the plan of the program's last [for] statement *)
let last_nest p =
  match List.rev (Query.loops p) with
  | lm :: _ ->
    (match Hashtbl.find_opt (plan_of p) lm.Query.lm_stmt.Ast.sid with
     | Some fl -> fl
     | None -> Alcotest.fail "last loop not planned")
  | [] -> Alcotest.fail "no loop"

let has_dem ops = List.exists (function Ir.FDem _ | Ir.FStDem _ -> true | _ -> false) ops

let test_sp_mul_add_fuses () =
  let p =
    parse
      {|
int main() {
  float a[8]; float b[8]; float c[8]; float d[8];
  for (int i = 0; i < 8; i++) { a[i] = 0.5f * (float)i; b[i] = 1.25f; c[i] = 0.1f; }
  for (int i = 0; i < 8; i++) {
    float x = a[i];
    float y = b[i];
    float z = c[i];
    float e = x * y + z;
    d[i] = e;
  }
  print_float((double)d[7]);
  return 0;
}|}
  in
  let ops = nest_ops (last_nest p) in
  check "no demote of single operands" false (has_dem ops);
  check "mul-add fused" true
    (List.exists (function Ir.FMulAddS _ -> true | _ -> false) ops);
  check "backends agree" true (Test_compile.agree p)

let test_double_to_float_keeps_demote () =
  let p =
    parse
      {|
int main() {
  double a[8]; float d[8];
  for (int i = 0; i < 8; i++) { a[i] = 0.1 * (double)i; }
  for (int i = 0; i < 8; i++) {
    float x = a[i] * 3.0;
    d[i] = x;
  }
  print_float((double)d[7]);
  return 0;
}|}
  in
  let ops = nest_ops (last_nest p) in
  check "declaration from a double keeps its demote" true
    (List.exists (function Ir.FDem _ -> true | _ -> false) ops);
  check "store of the single local does not demote again" false
    (List.exists (function Ir.FStDem _ -> true | _ -> false) ops);
  check "backends agree" true (Test_compile.agree p)

(* all SP superinstructions fire in one kernel, and it runs walker-exact *)
let all_sp_src =
  {|
const int N = 24;
int main() {
  float xs[N]; float ys[N]; float acc[N]; float out[N];
  for (int i = 0; i < N; i++) {
    xs[i] = (float)(rand01() * 4.0 - 2.0);
    ys[i] = (float)(rand01() + 0.5);
    acc[i] = 0.0f;
  }
  float k = 0.75f;
  for (int i = 0; i < N; i++) {
    for (int j = 0; j < N; j++) {
      float dx = xs[j] - xs[i];
      float dy = xs[j] - k;
      float m = ys[j] * k;
      float s = ys[j] + k;
      float q = dx * dy + s;
      float r = m + dx * dy;
      float t = q - m * k;
      float inv = 1.0f / sqrtf(fabsf(r) + 1.0f);
      float rc = 1.0f / (fabsf(t) + 1.0f);
      acc[i] += inv * rc;
      out[j] += s;
    }
  }
  float sum = 0.0f;
  for (int i = 0; i < N; i++) { sum += acc[i] + out[i]; }
  print_float((double)sum);
  return 0;
}|}

let test_all_sp_superinstructions () =
  let p = parse all_sp_src in
  let ops =
    Hashtbl.fold (fun _ fl acc -> nest_ops fl @ acc) (plan_of p) []
  in
  let name op =
    match op with
    | Ir.FLdSubS _ -> Some "FLdSubS"
    | Ir.FLdSub2S _ -> Some "FLdSub2S"
    | Ir.FLdMulS _ -> Some "FLdMulS"
    | Ir.FLdAddS _ -> Some "FLdAddS"
    | Ir.FMulAddS _ -> Some "FMulAddS"
    | Ir.FAddMulS _ -> Some "FAddMulS"
    | Ir.FSubMulS _ -> Some "FSubMulS"
    | Ir.FRecipS _ -> Some "FRecipS"
    | Ir.FRsqrtS _ -> Some "FRsqrtS"
    | Ir.FAccStS _ -> Some "FAccStS"
    | Ir.FMulAccStS _ -> Some "FMulAccStS"
    | _ -> None
  in
  let fired = List.sort_uniq compare (List.filter_map name ops) in
  Alcotest.(check (list string))
    "every SP superinstruction fires"
    (List.sort compare (List.map (fun (n, _, _) -> n) sp_fusions))
    fired;
  check "backends agree" true (Test_compile.agree p);
  check "backends agree (flow-shaped)" true (Test_compile.agree_flow p)

(* the float-demoted nbody kernel lowers to as many ops as its double
   twin: no redundant demotes, and every double fusion has an SP twin *)
let test_nbody_sp_op_count () =
  let p = App.program (Option.get (Suite.find "nbody")) in
  let sp =
    Sp_transforms.apply_all p ~fnames:(List.map (fun f -> f.Ast.fname) (Ast.funcs p))
  in
  (* the deepest nest: the time-step loop over the force computation *)
  let deepest prog =
    Hashtbl.fold
      (fun _ (fl : Ir.fast_loop) best ->
        match best with
        | Some (b : Ir.fast_loop)
          when Array.length b.Ir.fl_levels >= Array.length fl.Ir.fl_levels ->
          best
        | _ -> Some fl)
      (plan_of prog) None
    |> Option.get
  in
  let dp = deepest p and spl = deepest sp in
  let count fl = List.length (nest_ops fl) in
  Alcotest.(check int) "same nest depth" (Array.length dp.Ir.fl_levels)
    (Array.length spl.Ir.fl_levels);
  Alcotest.(check int) "SP nest op count equals DP" (count dp) (count spl);
  check "SP nest demotes nothing" false (has_dem (nest_ops spl))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_demote_exact;
    QCheck_alcotest.to_alcotest prop_sp_fusions_exact;
    Alcotest.test_case "float mul-add fuses without demotes" `Quick test_sp_mul_add_fuses;
    Alcotest.test_case "double-to-float declaration keeps its demote" `Quick
      test_double_to_float_keeps_demote;
    Alcotest.test_case "every SP superinstruction fires exactly" `Quick
      test_all_sp_superinstructions;
    Alcotest.test_case "SP nbody nest op count equals DP" `Quick test_nbody_sp_op_count;
  ]
