(** Interprocedural constant propagation.

    A formal parameter is an interprocedural constant when every call
    site passes it the same compile-time constant value (evaluated
    with the caller's PARAMETER constants and the caller's own
    interprocedural constants, so callers are solved first).  The
    constants feed the callee's dependence analysis as asserted
    values, inheriting "from a procedure's callers" exactly as Ped's
    framework does. *)

type t

(** From scratch: [update (Cutoff.scratch cg) ~prev:None]. *)
val compute : Callgraph.t -> t

(** Constants of the context's program, callers first, reusing from
    [prev] those of units whose call sites and callers' constants are
    unchanged. *)
val update : Cutoff.ctx -> prev:t option -> t

(** Formal-parameter constants of a unit: [(formal, value)]. *)
val constants_of : t -> string -> (string * int) list
