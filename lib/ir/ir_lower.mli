(** Lowering pass: select canonical counted [for] loop nests and compile
    them to {!Ir.fast_loop} plans for the VM backend.

    A loop nest is plannable when every level's bounds are nest-invariant
    integer expressions (literals, unassigned outer int scalars, and
    [+]/[-]/[*]/negation over those), its body contains only statically
    typed statements the flat IR can express — declarations, assignments,
    expression statements, [if] statements, inner [for] loops, scopes —
    and all array accesses go through plain outer pointer variables.
    Ternaries and short-circuit [&&]/[||] lower to control-flow sites with
    per-site taken counters, so the executing backend's batched step and
    hardware-counter accounting stays exact even when arms cost
    differently.  Loops containing [while], [return], [break], [continue],
    user function calls, or [Rstmt] observation-region statements are
    rejected, as is anything whose counter or rounding behaviour the flat
    IR cannot replicate bit-for-bit; rejected loops simply run on the
    closure backend, so lowering is a pure, sound optimisation with no
    effect on observable semantics (values, step budgets, counters, error
    messages, PRNG draws, or printed output).

    Lowering is purely syntactic + type-directed: it never looks at
    runtime values.  All value-dependent safety conditions (trip counts,
    bounds, aliasing, overflow) are checked per nest entry by the runtime
    guard in [Fastloop]. *)

(** Why a given [for] statement did or did not get a plan.  [Planned]
    reports the nest shape actually lowered (number of levels including
    the root, and number of control-flow sites). *)
type outcome =
  | Planned of { levels : int; sites : int }
  | Unplannable of string

val plan :
  ?region_sids:int list ->
  ?tracked:bool ->
  ?on_ill_typed:(Loc.t -> unit) ->
  Ast.program ->
  Ir.plan option
(** [plan ~region_sids ~tracked p] typechecks [p] and builds fast-loop
    plans for every plannable [for] nest, keyed by the root [For]
    statement id.

    Observation regions:

    - Loops whose body contains a statement in [region_sids] ([Rstmt]
      regions) are not planned: such a region is pushed and popped per
      statement, which a batched nest cannot do.
    - [tracked] (default [false]) lowers region-tracked plans for runs
      that profile [Rfunc]/[Rstmt] regions.  Every load and store is
      followed by a footprint mark ([Ir.TrackRd] and friends) that the
      executor applies to each active region frame.  Hoisting and cell
      promotion are disabled, so accesses and marks happen in walker
      order and region footprints are exact by construction — including
      stores guarded by a site.  Untracked plans keep both code motions.

    Inner loops of a planned nest also get independent entries of their
    own, so the compiled fallback still fast-paths them when the outer
    guard declines.  Programs that fail {!Typecheck.check_program} get no
    plan at all ([None]): the closure backend specialises on static types
    they do not have, so they must run on the walker.  [on_ill_typed] is
    then called with the location of every [for] statement, so callers
    can report the miss.  A [Some] plan therefore certifies that its
    program typechecks. *)

val plan_report :
  ?region_sids:int list -> Ast.program -> (Loc.t * outcome) list
(** Same walk as {!plan}, but returns one entry per [for] statement (in
    deterministic program order, outer loops before the loops they
    contain) describing the planning outcome — used by [--explain] to
    make coverage misses diagnosable. *)
