(** Fault-tolerance policies for flow execution.

    Every task application in a {!Graph} run crosses one supervised
    boundary ({!supervise}): exceptions and error results are classified
    into a small taxonomy, retryable classes are retried a bounded number
    of times with deterministic seeded backoff, and what remains becomes a
    structured {!failure} that the engine turns into a pruned branch (an
    {!Prov.Sfailed} trail step) rather than an aborted run — except under
    [psaflow run --strict], which restores fail-fast.

    A {!Timeout} is a blown interpreter step budget: a run raising
    [Machine.Step_limit_exceeded] because it exhausted the [max_steps]
    of its config ({!Engine.run}'s [~step_budget] lowers it for the
    branch fan-out).  Step budgets are exact and deterministic: the same
    program blows the same budget at the same statement at any [--jobs]
    level, so timeouts are never retried by default.

    Determinism invariant: with no policy armed beyond the defaults and no
    faults injected, supervision is observationally free — every task
    succeeds on its first attempt and flow output is byte-identical to an
    unsupervised run at any [--jobs] level. *)

(** Why a task ultimately failed. *)
type error_class =
  | Task_failed  (** the task returned an error or raised *)
  | Timeout  (** interpreter step budget exhausted *)
  | Cache_corrupt  (** failure traced to a corrupted cache entry *)
  | Resource_exhausted  (** out of memory / stack overflow *)

type failure = {
  f_class : error_class;
  f_site : string;  (** supervised site, e.g. ["FPGA/Generate oneAPI Design"] *)
  f_msg : string;  (** underlying error message, attempt-independent *)
  f_attempts : int;  (** attempts consumed, [>= 1] *)
}

type policy = {
  pol_max_attempts : int;  (** total attempts per site, [>= 1]; default 2 *)
  pol_backoff_s : float;
      (** base backoff before attempt [n+1]: [base * 2^(n-1) * jitter]
          with jitter drawn in [\[0.5, 1.5)] from a {!Util.Prng} stream
          seeded by [pol_seed] and the site name — deterministic per
          (policy, site, attempt).  Default 0.01 s. *)
  pol_seed : int;  (** seeds the backoff jitter; default 42 *)
  pol_retryable : error_class -> bool;
      (** default: retry {!Task_failed} and {!Cache_corrupt} only —
          {!Timeout} and {!Resource_exhausted} are deterministic blowouts
          that would fail identically again *)
}

val default_policy : policy

val policy : unit -> policy
(** The process-wide policy used when {!supervise} is not given one. *)

val set_policy : policy -> unit

val class_label : error_class -> string
(** Stable lowercase label ("task-failed", "timeout", "cache-corrupt",
    "resource-exhausted") used in provenance rendering and metrics. *)

val classify_message : string -> error_class
(** Heuristic classification of a task's error string. *)

val supervise :
  ?policy:policy -> site:string -> (unit -> ('a, string) result) -> ('a, failure) result
(** [supervise ~site thunk] runs [thunk] under the policy: exceptions are
    caught and classified ([Machine.Step_limit_exceeded] is a {!Timeout},
    [Out_of_memory]/[Stack_overflow] are {!Resource_exhausted}, anything
    else {!Task_failed}), error results are classified by message, and
    retryable failures re-run the thunk after a seeded backoff until
    [pol_max_attempts] is spent.  Each retry increments the
    [flow.retries] counter; a final failure increments
    [flow.task.failures]. *)
