(** The incremental solver behind the five interprocedural analyses.

    A context describes one summary update: the new call graph and,
    unless the update starts from scratch, the previous version's
    graph and unit digests.  Each analysis hands {!bottom_up} or
    {!top_down} its per-unit function; the solver visits the call
    graph's strongly connected components in order, computes each
    unit once (a recursive component iterates to a fixed point), and
    keeps a component's previous results when nothing it reads has
    changed — the cut-off of Cooper, Kennedy & Torczon's recompilation
    analysis. *)

open Fortran_front

(** Content digest of every unit of a program, by unit name. *)
type stamp

val stamp : Ast.program -> stamp

type ctx

(** [make cg stamp ~prev] — the context of an update to the program of
    [cg] (whose digests are [stamp]) from the version described by
    [prev].  A unit is {e edited} when its digest differs from [prev]'s
    or it exists in only one version. *)
val make : Callgraph.t -> stamp -> prev:(Callgraph.t * stamp) option -> ctx

(** A from-scratch context: every unit is recomputed. *)
val scratch : Callgraph.t -> ctx

val callgraph : ctx -> Callgraph.t

(** The unit's symbol table, built at most once per context. *)
val table : ctx -> Ast.program_unit -> Symbol.table

(** Distinct units recomputed so far, by any analysis. *)
val recomputed : ctx -> int

(** [bottom_up ctx ~prev ~equal f] — [f ~lookup u] computes unit [u]'s
    result from its own content and its callees' results ([lookup],
    [None] for an external routine or a recursive partner not yet
    computed).  Callees are solved first.  A unit's [prev] result is
    kept when it is not edited and no callee's result or interface
    changed.  In a recursive component members start from [seed]
    (default: no result) and iterate up to [max_rounds] (default 10). *)
val bottom_up :
  ctx ->
  prev:(string, 'a) Hashtbl.t option ->
  equal:('a -> 'a -> bool) ->
  ?seed:(Ast.program_unit -> 'a option) ->
  ?max_rounds:int ->
  (lookup:(string -> 'a option) -> Ast.program_unit -> 'a) ->
  (string, 'a) Hashtbl.t

(** [top_down ctx ~prev ~equal f] — as {!bottom_up} with callers in
    place of callees: [f ~lookup u] reads the results of [u]'s callers
    and their call sites.  A unit's [prev] result is kept when neither
    it nor any caller (old or new) was edited and no caller's result
    changed. *)
val top_down :
  ctx ->
  prev:(string, 'a) Hashtbl.t option ->
  equal:('a -> 'a -> bool) ->
  (lookup:(string -> 'a option) -> Ast.program_unit -> 'a) ->
  (string, 'a) Hashtbl.t
