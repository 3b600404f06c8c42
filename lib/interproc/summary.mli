(** Whole-program interprocedural analysis coordinator.

    Runs the call graph, Mod/Ref, Kill, regular sections,
    interprocedural constants and aliases, incrementally after an edit
    ({!update}), then hands each program unit the oracles the
    intraprocedural machinery consumes:

    - a {!Scalar_analysis.Defuse.call_oracle} giving each CALL's
      mods/refs/kills in caller space,
    - a {!Dependence.Depenv.call_refs} giving each CALL's array side
      effects as section-precise pseudo-references,
    - asserted values for formals that are interprocedural constants.

    [env_for] packages all three into a ready {!Dependence.Depenv.t}. *)

open Fortran_front

type t

(** [update ~prev prog] — the summary of [prog].  With [prev] (the
    summary of an earlier version of the program) only the units an
    edit reaches are recomputed: a unit whose content is unchanged
    keeps its bottom-up facts while its callees' facts are unchanged,
    and its top-down facts while its callers' sites and facts are
    unchanged.  The result is equal to [update ~prev:None prog] in
    every observable fact. *)
val update : prev:t option -> Ast.program -> t

(** [analyze prog] is [update ~prev:None prog]. *)
val analyze : Ast.program -> t

val callgraph : t -> Callgraph.t
val modref : t -> Modref.t
val kills : t -> Ipkill.t
val sections : t -> Sections.t
val ipconst : t -> Ipconst.t
val aliases : t -> Aliases.t

(** Units whose facts the building {!update} recomputed (every unit
    from scratch). *)
val recomputed : t -> int

(** Call oracle for CALL statements appearing in [unit]. *)
val oracle_for : t -> Ast.program_unit -> Scalar_analysis.Defuse.call_oracle

(** Section-precise array effects of CALL statements in [unit]. *)
val call_refs_for : t -> Ast.program_unit -> Dependence.Depenv.call_refs

(** Build a {!Dependence.Depenv.t} for [unit] with full
    interprocedural support.  [asserts] and [config] pass through;
    interprocedural formal constants are appended to the asserted
    values. *)
val env_for :
  ?config:Dependence.Depenv.config ->
  ?asserts:Dependence.Depenv.assertions ->
  t ->
  Ast.program_unit ->
  Dependence.Depenv.t
