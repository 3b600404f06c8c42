(** Call graph of a whole program.

    Nodes are program units; edges are CALL sites with their actual
    arguments.  Fortran 77 forbids recursion, so the graph is expected
    to be acyclic, but {!sccs} groups any recursive units into one
    component, inside which the analyses iterate to a fixed point.

    Per-unit queries ({!sites_in}, {!sites_to}, {!callees_of},
    {!callers_of}) read tables indexed once by {!build}. *)

open Fortran_front

type site = {
  caller : string;
  callee : string;
  call_sid : Ast.stmt_id;
  actuals : Ast.expr list;
}

type t

(** [build ?prev prog] — [prev], the graph of an earlier version of
    the program, lends the call sites of every unit value [prog] shares
    with it. *)
val build : ?prev:t -> Ast.program -> t
val program : t -> Ast.program
val unit_named : t -> string -> Ast.program_unit option
val unit_names : t -> string list
val sites : t -> site list

(** Call sites appearing in the given unit, in program order. *)
val sites_in : t -> string -> site list

(** Call sites targeting the given unit, in program order. *)
val sites_to : t -> string -> site list

(** Distinct callee (caller) names of a unit, sorted. *)
val callees_of : t -> string -> string list
val callers_of : t -> string -> string list

(** Strongly connected components of the call graph among the
    program's units, callees-first: every component a unit calls comes
    before the unit's own.  A component has more than one member, or
    a member that calls itself, only under recursion. *)
val sccs : t -> string list list

(** Unit names ordered callees-first ([List.concat] of {!sccs}). *)
val bottom_up : t -> string list

(** Formal parameter names of a unit ([None] if unknown/external). *)
val formals_of : t -> string -> string list option

(** Graphviz rendering (the editor's call-graph display). *)
val dot : t -> string
