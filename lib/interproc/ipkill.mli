(** Interprocedural flow-sensitive scalar Kill analysis.

    A formal parameter or COMMON scalar is {e killed} by a unit when
    it is assigned on every control-flow path through the unit before
    any use.  A caller may then treat the variable as strongly defined
    by the CALL — which lets scalar privatization see through calls,
    the [nxsns]-style case the Ped evaluation highlights. *)

open Fortran_front

type t

(** [compute cg modref] — from scratch, callees first, so kills
    propagate through wrapper routines. *)
val compute : Callgraph.t -> Modref.t -> t

(** Kills of the context's program, reusing from [prev] those of units
    whose content and callees' kills are unchanged. *)
val update : Cutoff.ctx -> prev:t option -> t

(** Scalars (formals and COMMON variables, callee name space) killed
    by the unit. *)
val kills_of : t -> string -> string list

(** Kills of one call site translated to the caller's name space: only
    whole-scalar actuals ([Var v]) can be killed. *)
val translate : t -> site:Callgraph.site -> tbl:Symbol.table -> string list
