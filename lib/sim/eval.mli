(** The AST evaluator: one Fortran-subset interpreter over {!Store}.

    Sequential semantics follow Fortran 77 (by-reference arguments,
    COMMON storage shared by name, column-major adjustable arrays,
    truncating integer division, DO trip counts computed on entry).
    Everything that differs between the two clients — the simulator
    ({!Interp}, which charges the paper's machine model) and the
    multicore runtime ([Runtime.Exec], which runs on real domains and
    validates with shadow memory) — is passed in as a record of
    {!hooks}.  Above all [par_do] is the client's {e parallel-loop
    policy}: how an outermost PARALLEL DO runs.

    The statement budget and the dynamic operation counts are kept
    here, for every client. *)

open Fortran_front

exception Runtime_error of string

(** A program unit with its symbol table. *)
type unit_info = { u : Ast.program_unit; tbl : Symbol.table }

(** Names visible in one activation, bound to their storage. *)
type frame = (string, Store.slot) Hashtbl.t

type signal = Snormal | Sgoto of int | Sreturn | Sstop

(** Dynamic operation counts (see {!Perf.Machine.op_counts}). *)
type ops = {
  mutable o_flops : int;
  mutable o_mems : int;
  mutable o_intr : int;
  mutable o_iters : int;
  mutable o_calls : int;
}

val fresh_ops : unit -> ops

(** [add_ops dst src] adds [src]'s counts into [dst]. *)
val add_ops : ops -> ops -> unit

val op_counts : ops -> Perf.Machine.op_counts

(** A DO loop whose header has been evaluated: the DO variable's
    storage already holds its first value. *)
type loop = {
  l_stmt : Ast.stmt;
  l_header : Ast.do_header;
  l_body : Ast.stmt list;
  l_trip : int;
  l_value_at : int -> Value.value;  (** the DO variable in iteration k *)
  l_iv : Store.cell;  (** the DO variable's storage in the loop's frame *)
}

(** An execution context.  ['s] is the client's own state. *)
type 's ctx = {
  units : (string, unit_info) Hashtbl.t;
  commons : frame;
      (** allocated before execution starts and only read afterwards,
          so callee frames can be built on any domain *)
  max_steps : int;
  steps : int Atomic.t;  (** statements executed, across all contexts *)
  hooks : 's hooks;
  side : 's;
  mutable out_rev : string list;  (** PRINT lines, newest first *)
  mutable depth : int;
  mutable in_parallel : bool;  (** inside a parallel loop's iterations *)
  ops : ops;
}

and 's hooks = {
  stmt : 's ctx -> unit_info -> Ast.stmt -> unit;
      (** before a statement runs (after the budget check) *)
  call_fn : 's ctx -> unit;
      (** before a function referenced in an expression is called *)
  note : 's ctx -> write:bool -> elem:bool -> string -> Store.buf -> int -> unit;
      (** before a variable's storage is read or written: the name, the
          buffer and the element offset; [elem] for an array element,
          not a scalar *)
  loop : 's ctx -> unit_info -> frame -> Ast.stmt -> Ast.do_header -> Ast.stmt list -> signal;
      (** runs a whole DO statement, header included: {!exec_do},
          unless the client wraps it *)
  iteration : 's ctx -> unit_info -> frame -> loop -> int -> signal;
      (** runs the body of iteration k, the DO variable already set:
          {!exec_block} on [l_body], unless the client wraps it *)
  par_do : 's ctx -> unit_info -> frame -> loop -> signal;
      (** runs a PARALLEL DO met outside any parallel loop; must leave
          the DO variable at its final value on normal completion *)
}

(** No-op hooks whose parallel-loop policy is {!seq_loop}. *)
val sequential : 's hooks

(** [load prog] — the units by name with their symbol tables, the main
    unit, and COMMON storage for every unit (COMMON array bounds must
    be constant).
    @raise Runtime_error without a main unit *)
val load : Ast.program -> (string, unit_info) Hashtbl.t * unit_info * frame

val context :
  units:(string, unit_info) Hashtbl.t ->
  commons:frame ->
  max_steps:int ->
  's hooks ->
  's ->
  's ctx

(** The slot a name resolves to, creating storage for an undeclared
    scalar local on first use. *)
val find_slot : unit_info -> frame -> string -> Store.slot

(** A fresh activation frame: [bindings] for the formals, storage for
    the locals (PARAMETER and DATA values seeded), COMMON views, and
    formal arrays reshaped to the callee's bounds. *)
val build_frame : 's ctx -> unit_info -> (string * Store.slot) list -> frame

val exec_block : 's ctx -> unit_info -> frame -> Ast.stmt list -> signal

(** Evaluates the header, gives the DO variable its first value, and
    runs the loop by [par_do] or {!seq_loop}. *)
val exec_do :
  's ctx -> unit_info -> frame -> Ast.stmt -> Ast.do_header -> Ast.stmt list -> signal

(** [iteration c ui frame l iv k] — set [iv] to the DO variable's value
    in iteration [k] and run the body once in [frame]. *)
val iteration : 's ctx -> unit_info -> frame -> loop -> Store.cell -> int -> signal

(** Every iteration in order; afterwards the DO variable holds the
    first value that failed the iteration test (F77). *)
val seq_loop : 's ctx -> unit_info -> frame -> loop -> signal

(** Run the main unit's body in [frame]; STOP ends it normally.
    @raise Runtime_error on execution errors *)
val exec_main : 's ctx -> unit_info -> frame -> unit

(** Main-frame and COMMON variables flattened to floats, sorted by
    name (COMMON keys per {!Abi.common_key}). *)
val snapshot : 's ctx -> frame -> (string * float list) list
