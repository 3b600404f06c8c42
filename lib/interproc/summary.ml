open Fortran_front
open Scalar_analysis

type t = {
  cg : Callgraph.t;
  stamp : Cutoff.stamp;
  modref_ : Modref.t;
  kills_ : Ipkill.t;
  sections_ : Sections.t;
  ipconst_ : Ipconst.t;
  aliases_ : Aliases.t;
  recomputed_ : int;
}

(* Bottom-up analyses first (callees before callers), then top-down
   ones (callers before callees); each reuses from [prev] whatever the
   edit did not reach.  The result never points back at [prev]. *)
let update ~(prev : t option) (prog : Ast.program) : t =
  let cg = Callgraph.build ?prev:(Option.map (fun p -> p.cg) prev) prog in
  let stamp = Cutoff.stamp prog in
  let ctx =
    Cutoff.make cg stamp ~prev:(Option.map (fun p -> (p.cg, p.stamp)) prev)
  in
  let part f = Option.map f prev in
  let modref_ = Modref.update ctx ~prev:(part (fun p -> p.modref_)) in
  let kills_ = Ipkill.update ctx ~prev:(part (fun p -> p.kills_)) in
  let sections_ = Sections.update ctx ~prev:(part (fun p -> p.sections_)) in
  let ipconst_ = Ipconst.update ctx ~prev:(part (fun p -> p.ipconst_)) in
  let aliases_ = Aliases.update ctx ~prev:(part (fun p -> p.aliases_)) in
  {
    cg; stamp; modref_; kills_; sections_; ipconst_; aliases_;
    recomputed_ = Cutoff.recomputed ctx;
  }

let analyze prog = update ~prev:None prog

let callgraph t = t.cg
let modref t = t.modref_
let kills t = t.kills_
let sections t = t.sections_
let ipconst t = t.ipconst_
let aliases t = t.aliases_
let recomputed t = t.recomputed_

let site_of (u : Ast.program_unit) (s : Ast.stmt) : Callgraph.site option =
  match s.Ast.node with
  | Ast.Call (callee, actuals) ->
    Some
      { Callgraph.caller = u.Ast.uname; callee; call_sid = s.Ast.sid; actuals }
  | _ -> None

let oracle_for t (u : Ast.program_unit) : Defuse.call_oracle =
  let tbl = Symbol.build u in
  fun s ->
    match site_of u s with
    | None -> None
    | Some site ->
      let mods, refs = Modref.translate t.modref_ ~site ~tbl in
      let kills = Ipkill.translate t.kills_ ~site ~tbl in
      Some { Defuse.ce_mods = mods; ce_refs = refs; ce_kills = kills }

let call_refs_for t (u : Ast.program_unit) : Dependence.Depenv.call_refs =
  let tbl = Symbol.build u in
  fun s ->
    match site_of u s with
    | None -> []
    | Some site -> Sections.call_refs t.sections_ ~site ~tbl

let env_for ?config ?(asserts = Dependence.Depenv.no_assertions) t
    (u : Ast.program_unit) : Dependence.Depenv.t =
  let asserts =
    {
      asserts with
      Dependence.Depenv.asserted_values =
        asserts.Dependence.Depenv.asserted_values
        @ Ipconst.constants_of t.ipconst_ u.Ast.uname;
    }
  in
  Dependence.Depenv.make ~oracle:(oracle_for t u)
    ~call_refs:(call_refs_for t u)
    ~alias:(fun a b ->
      if String.equal a b then `Aligned
      else Aliases.query t.aliases_ u.Ast.uname a b)
    ?config ~asserts u
