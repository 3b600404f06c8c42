(* Content keys for the incremental analysis engine, all built by
   [Content]: equal content gives equal keys whatever the heap sharing,
   the process or the source path.  Statement ids are part of the
   content: an edit produces fresh ids for the statements it touched,
   so a key distinguishes "same text, re-parsed" from "the very
   statements analysis results refer to". *)

open Fortran_front

type t = Content.t

(* A whole program: the digest of its ordered, memoised unit digests,
   so it costs one memo probe per untouched unit.  It keys the
   interprocedural summary cache; undo and redo restore a previous
   program value and therefore a previous fingerprint. *)
let program = Content.program

(* What a unit's intraprocedural analysis can observe of the
   interprocedural summary: per-CALL scalar effects and array section
   pseudo-references, interprocedural formal constants, and the alias
   pairs of the unit.  Two summaries with equal facets are
   interchangeable for this unit, so cached per-unit results survive
   whole-program summary rebuilds that left the unit's view intact. *)
let interproc_facet (summary : Interproc.Summary.t) (u : Ast.program_unit) : t =
  let oracle = Interproc.Summary.oracle_for summary u in
  let call_refs = Interproc.Summary.call_refs_for summary u in
  let calls =
    Ast.fold_stmts
      (fun acc s ->
        match s.Ast.node with
        | Ast.Call _ -> (oracle s, call_refs s) :: acc
        | _ -> acc)
      [] u.Ast.body
  in
  let name = u.Ast.uname in
  Content.value
    ( calls,
      Interproc.Ipconst.constants_of (Interproc.Summary.ipconst summary) name,
      Interproc.Aliases.pairs_of (Interproc.Summary.aliases summary) name )

(* The full per-unit analysis key: the unit's statements, the analysis
   configuration, the user's assertions, and (when interprocedural
   analysis is on) the callees' summary facet. *)
let analysis_key ~(config : Dependence.Depenv.config)
    ~(asserts : Dependence.Depenv.assertions) ~(facet : t option)
    (u : Ast.program_unit) : t =
  Content.combine [ Content.unit u; Content.value (config, asserts, facet) ]
