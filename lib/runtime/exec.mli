(** Multicore execution of analyzed Fortran programs.

    The multicore runtime is the other parallel-loop policy over the
    one evaluator ({!Sim.Eval}); the simulator ({!Sim.Interp}) is the
    first.  Statements, calls and storage are the evaluator's, so both
    agree on every sequential step by construction.  An outermost
    PARALLEL DO runs on real OCaml domains: iterations are distributed
    over a {!Pool} under a chunked or self-scheduled policy, loop
    bodies mutate shared {!Sim.Store} buffers in place, and the
    per-loop {!Plan} supplies private copies, identity-seeded
    reduction accumulators (combined deterministically in worker
    order at the join), and last-value write-back.

    With [~validate:true] no domains are spawned; instead the program
    runs sequentially with every PARALLEL DO instrumented through
    shadow memory — each element access is stamped with its iteration
    number and cross-iteration flow/anti/output conflicts are
    collected.  Storage the plan privatizes is excluded, so a clean
    (empty) report means the observed execution really was free of
    loop-carried dependences on shared data. *)

open Fortran_front

(** The same exception as {!Sim.Eval.Runtime_error}. *)
exception Runtime_error of string

type conflict_kind = Flow | Anti | Output

(** Whether the static analysis foresaw a conflict.  [Untracked] when
    the run was given no predictor; [Predicted id] names the static
    dependence (by graph id) that covers the observed (loop, variable,
    kind); [Unpredicted] marks a conflict no static edge accounts for
    — an analysis soundness signal the precision dashboard counts. *)
type pred = Untracked | Predicted of int | Unpredicted

type conflict = {
  c_loop : Ast.stmt_id;  (** sid of the monitored PARALLEL DO *)
  c_var : string;
  c_kind : conflict_kind;
  c_offset : int;  (** element offset within the variable's storage *)
  c_iter_a : int;  (** earlier iteration (first occurrence) *)
  c_iter_b : int;  (** later iteration (first occurrence) *)
  mutable c_count : int;  (** occurrences of this (loop, var, kind) *)
  c_pred : pred;  (** static-prediction tag (first occurrence wins) *)
}

type outcome = {
  output : string list;
  wall_s : float;  (** monotonic-clock seconds of execution proper *)
  stmts_executed : int;
  final_store : (string * float list) list;
      (** same shape and ordering as {!Sim.Interp.outcome.final_store} *)
  conflicts : conflict list;  (** empty unless run with [~validate] *)
  ops : Perf.Machine.op_counts;
      (** dynamic operation counts, for {!Perf.Machine.calibrate} *)
}

(** [run prog] executes [prog]'s main unit.

    @param domains worker domains to spawn (default 4; clamped ≥ 1)
    @param schedule iteration scheduling policy (default {!Pool.Chunk})
    @param validate run sequentially with shadow-memory conflict
      detection instead of spawning domains (default false)
    @param predict map an observed (loop sid, variable, kind) to the
      static dependence id that predicted it, tagging each conflict
      {!Predicted} or {!Unpredicted} and bumping the
      [runtime.validator.predicted]/[.unpredicted] counters; without
      it conflicts are {!Untracked} and print unchanged
    @param max_steps statement budget shared across domains
    @param telemetry sink for runtime observability (default: the
      process {!Telemetry.default} sink): an [exec.run] span, one
      [exec.parallel-loop] span per parallel-loop execution (covering
      fork through join, with nested [exec.copy-in] spans on each
      worker's first iteration and an [exec.join] span for the
      sequential merge), the pool's per-worker spans and utilization
      metrics, and the [runtime.validator.conflicts] counter
    @raise Runtime_error on execution errors *)
val run :
  ?domains:int ->
  ?schedule:Pool.schedule ->
  ?validate:bool ->
  ?predict:(Ast.stmt_id -> string -> conflict_kind -> int option) ->
  ?max_steps:int ->
  ?telemetry:Telemetry.sink ->
  Ast.program ->
  outcome

(** Mark every DO loop PARALLEL, bypassing the analysis — for
    exercising the validator on loops known to carry dependences. *)
val force_parallel : Ast.program -> Ast.program

(** The inverse: clear every PARALLEL flag — the sequential baseline
    the performance debugger measures speedup against. *)
val strip_parallel : Ast.program -> Ast.program

val kind_to_string : conflict_kind -> string
val conflict_to_string : conflict -> string
