open Fortran_front
open Scalar_analysis
module SSet = Set.Make (String)

type summary = { mods : SSet.t; refs : SSet.t }

type t = { cg : Callgraph.t; summaries : (string, summary) Hashtbl.t }

let visible tbl name =
  (* only formals and COMMON variables are externally visible *)
  match Symbol.lookup tbl name with
  | Some (i : Symbol.info) -> i.formal || i.common <> None
  | None -> false

(* Local may-mod / may-ref of a unit, ignoring calls. *)
let local_effects tbl (u : Ast.program_unit) : summary =
  let ctx = Defuse.make tbl u in
  Ast.fold_stmts
    (fun acc (s : Ast.stmt) ->
      match s.Ast.node with
      | Ast.Call _ -> acc (* handled by propagation *)
      | _ ->
        let mods = List.filter (visible tbl) (Defuse.may_defs ctx s) in
        let refs = List.filter (visible tbl) (Defuse.uses ctx s) in
        {
          mods = SSet.union acc.mods (SSet.of_list mods);
          refs = SSet.union acc.refs (SSet.of_list refs);
        })
    { mods = SSet.empty; refs = SSet.empty }
    u.Ast.body

(* Base of a modifiable actual argument, if any. *)
let actual_base tbl (e : Ast.expr) : string option =
  match e with
  | Ast.Var v -> Some v
  | Ast.Index (b, _) when not (Symbol.is_fun_call tbl b) -> Some b
  | _ -> None

let vars_of_actual (e : Ast.expr) : string list = Ast.expr_vars e

(* Translate a callee-name-space set through a call site. *)
let translate_set (names : SSet.t) ~(formals : string list)
    ~(actuals : Ast.expr list) ~tbl ~for_mods : string list =
  SSet.fold
    (fun name acc ->
      match List.find_index (String.equal name) formals with
      | Some i -> (
        match List.nth_opt actuals i with
        | Some actual ->
          if for_mods then
            match actual_base tbl actual with
            | Some b -> b :: acc
            | None -> acc (* expression argument: a temporary *)
          else vars_of_actual actual @ acc
        | None -> acc)
      | None ->
        (* a COMMON variable: visible in the caller under its own name *)
        name :: acc)
    names []

(* The effect of one call site on the caller: the callee's summary
   translated through the site, or the worst case for an unknown
   callee (every modifiable actual and every COMMON variable). *)
let site_effects cg ~lookup tbl (site : Callgraph.site) =
  match
    (lookup site.Callgraph.callee, Callgraph.formals_of cg site.Callgraph.callee)
  with
  | Some callee_sum, Some formals ->
    ( translate_set callee_sum.mods ~formals ~actuals:site.Callgraph.actuals
        ~tbl ~for_mods:true,
      translate_set callee_sum.refs ~formals ~actuals:site.Callgraph.actuals
        ~tbl ~for_mods:false )
  | _ ->
    let bases = List.filter_map (actual_base tbl) site.Callgraph.actuals in
    let commons =
      List.filter_map
        (fun (i : Symbol.info) -> if i.common <> None then Some i.name else None)
        (Symbol.infos tbl)
    in
    (bases @ commons, List.concat_map vars_of_actual site.Callgraph.actuals @ commons)

(* A unit's summary: its local effects plus the visible effects of
   every call it makes. *)
let unit_summary ctx ~lookup (u : Ast.program_unit) : summary =
  let cg = Cutoff.callgraph ctx in
  let tbl = Cutoff.table ctx u in
  let add_visible set names =
    List.fold_left
      (fun s n -> if visible tbl n then SSet.add n s else s)
      set names
  in
  List.fold_left
    (fun acc site ->
      let mods, refs = site_effects cg ~lookup tbl site in
      { mods = add_visible acc.mods mods; refs = add_visible acc.refs refs })
    (local_effects tbl u)
    (Callgraph.sites_in cg u.Ast.uname)

let equal_summary a b = SSet.equal a.mods b.mods && SSet.equal a.refs b.refs

let update ctx ~(prev : t option) : t =
  let summaries =
    (* recursion: members start from their local effects, which only
       grow, so the iteration reaches the least fixed point *)
    Cutoff.bottom_up ctx
      ~prev:(Option.map (fun p -> p.summaries) prev)
      ~equal:equal_summary
      ~seed:(fun u -> Some (local_effects (Cutoff.table ctx u) u))
      ~max_rounds:max_int (unit_summary ctx)
  in
  { cg = Cutoff.callgraph ctx; summaries }

let compute cg = update (Cutoff.scratch cg) ~prev:None

let summary_of t name = Hashtbl.find_opt t.summaries name

let translate t ~(site : Callgraph.site) ~tbl =
  let mods, refs = site_effects t.cg ~lookup:(summary_of t) tbl site in
  (List.sort_uniq String.compare mods, List.sort_uniq String.compare refs)
