(* Content fingerprints for the incremental analysis engine.

   Everything fingerprinted here is pure data (the AST carries no
   closures or cycles), so [Marshal] gives a canonical byte string and
   [Digest] a 16-byte key.  Statement ids are part of the content: an
   edit produces fresh ids for the statements it touched, so a
   fingerprint distinguishes "same text, re-parsed" from "the very
   statements analysis results refer to". *)

open Fortran_front

type t = Digest.t

let to_hex = Digest.to_hex

let of_string = Digest.string

(* A program unit's own content, memoised by physical identity: an
   edit shares every untouched unit with the previous program. *)
let unit_content : Ast.program_unit -> t = Interproc.Unit_digest.of_unit

(* A whole program: the digest of its ordered unit digests, so it
   costs one memo probe per untouched unit and stays canonical (equal
   content, equal key, whatever the sharing).  It keys the
   interprocedural summary cache; undo and redo restore a previous
   program value and therefore a previous fingerprint. *)
let program (p : Ast.program) : t =
  Digest.string (String.concat "" (List.map unit_content p.Ast.punits))

(* What a unit's intraprocedural analysis can observe of the
   interprocedural summary: per-CALL scalar effects and array section
   pseudo-references, interprocedural formal constants, and the alias
   pairs of the unit.  Two summaries with equal facets are
   interchangeable for this unit, so cached per-unit results survive
   whole-program summary rebuilds that left the unit's view intact. *)
let interproc_facet (summary : Interproc.Summary.t) (u : Ast.program_unit) : t =
  let buf = Buffer.create 512 in
  (* without sharing: a summary that reused per-unit parts must key
     exactly like one built afresh *)
  let add v = Buffer.add_string buf (Marshal.to_string v [ Marshal.No_sharing ]) in
  let oracle = Interproc.Summary.oracle_for summary u in
  let call_refs = Interproc.Summary.call_refs_for summary u in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.node with
      | Ast.Call _ ->
        add (oracle s);
        add (call_refs s)
      | _ -> ())
    u.Ast.body;
  let name = u.Ast.uname in
  add (Interproc.Ipconst.constants_of (Interproc.Summary.ipconst summary) name);
  add (Interproc.Aliases.pairs_of (Interproc.Summary.aliases summary) name);
  Digest.string (Buffer.contents buf)

(* The full per-unit analysis key: the unit's statements, the analysis
   configuration, the user's assertions, and (when interprocedural
   analysis is on) the callees' summary facet. *)
let analysis_key ~(config : Dependence.Depenv.config)
    ~(asserts : Dependence.Depenv.assertions) ~(facet : t option)
    (u : Ast.program_unit) : t =
  Digest.string
    (String.concat "|"
       [ unit_content u;
         Digest.string
           (Marshal.to_string (config, asserts) [ Marshal.No_sharing ]);
         (match facet with Some f -> f | None -> "") ])
