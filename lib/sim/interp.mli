(** The execution simulator: the paper's machine model as a
    parallel-loop policy over the one evaluator ({!Eval}).

    The simulator runs the program sequentially and keeps a
    {e simulated clock}.  Each statement is charged its static cost
    ({!Perf.Estimator.expr_cost}) before it runs, and every DO
    iteration pays the machine's loop overhead.  An outermost PARALLEL
    DO runs its iterations one at a time (so the simulation is
    deterministic) but charges them as the machine would run them.
    Iterations are block- or cyclic-scheduled onto the machine's
    processors, each processor's time is the sum of its iterations'
    measured costs, and the loop costs fork/join + max over
    processors.  Inner parallel loops run sequentially on their
    processor, as on the machines Ped targeted.

    [par_order] permutes the execution order of parallel-loop
    iterations.  A correctly parallelized program produces the same
    result under any order; the test suite uses [Reverse] and
    [Shuffled] to catch unsafe parallelization (the editor's
    power-steering warnings are about exactly this). *)

open Fortran_front

(** The same exception as {!Eval.Runtime_error}. *)
exception Runtime_error of string

type order = Seq | Reverse | Shuffled of int  (** seed *)

(** One concrete array-element access, as reported to the [trace]
    callback of {!run}: the accessing statement, the array and the
    element's flat offset within its storage, read or write, a global
    statement-instance number (monotone in execution order; two
    accesses of the same instance belong to one execution of one
    statement), and the active DO loops with their 0-based normalized
    iteration numbers, outermost first.  Scalar accesses are not
    reported — the dependence oracle that consumes this trace checks
    the array dependence tests, whose domain is exactly these
    references. *)
type access = {
  a_sid : Ast.stmt_id;
  a_var : string;
  a_off : int;
  a_write : bool;
  a_instance : int;
  a_iters : (Ast.stmt_id * int) list;
}

type outcome = {
  output : string list;        (** PRINT lines, in order *)
  cycles : float;              (** simulated parallel time *)
  stmts_executed : int;
  final_store : (string * float list) list;
      (** main-program and COMMON variables after execution, flattened
          to floats, sorted by name *)
  loop_cycles : (Ast.stmt_id * float) list;
      (** simulated time spent in each DO statement (nested loops are
          included in their parents, as in the static estimates) *)
}

(** [run program] — execute from the main program unit.
    @param machine the cost model (default {!Perf.Machine.default})
    @param honor_parallel charge PARALLEL DO loops as parallel
           (default true; false gives the sequential baseline)
    @param par_order iteration order for parallel loops
    @param max_steps statement budget, guards runaways
    @param trace called once per array-element access, in execution
           order (see {!access})
    @raise Runtime_error on missing main, a COMMON array with
           non-constant bounds, bad subscripts, recursion, or budget
           exhaustion *)
val run :
  ?machine:Perf.Machine.t ->
  ?honor_parallel:bool ->
  ?par_order:order ->
  ?max_steps:int ->
  ?trace:(access -> unit) ->
  Ast.program ->
  outcome

(** [outputs_match ?tol a b] — same PRINT lines up to relative
    tolerance on numeric fields (reductions reassociate under
    permuted parallel orders). *)
val outputs_match : ?tol:float -> string list -> string list -> bool

(** Like {!outputs_match} for final stores. *)
val stores_match :
  ?tol:float ->
  (string * float list) list ->
  (string * float list) list ->
  bool
