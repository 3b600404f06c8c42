open Fortran_front
open Scalar_analysis

type t = { consts : (string, (string * int) list) Hashtbl.t }

(* Evaluate an actual argument using the caller's PARAMETER constants
   and its already-known interprocedural formal constants. *)
let eval_actual tbl caller_consts (e : Ast.expr) : int option =
  let lookup v =
    match List.assoc_opt v caller_consts with
    | Some n -> Some (Constants.Cint n)
    | None -> (
      match Symbol.param_value tbl v with
      | Some n -> Some (Constants.Cint n)
      | None -> None)
  in
  match Constants.eval_with lookup e with
  | Some (Constants.Cint n) -> Some n
  | _ -> None

(* A formal is constant iff every site passes it the same value. *)
let unit_consts ctx ~lookup (u : Ast.program_unit) : (string * int) list =
  let cg = Cutoff.callgraph ctx in
  match Callgraph.formals_of cg u.Ast.uname with
  | None | Some [] -> []
  | Some formals ->
    let sites = Callgraph.sites_to cg u.Ast.uname in
    List.mapi
      (fun i f ->
        let vals =
          List.map
            (fun (site : Callgraph.site) ->
              match
                ( Callgraph.unit_named cg site.Callgraph.caller,
                  List.nth_opt site.Callgraph.actuals i )
              with
              | Some caller, Some a ->
                let caller_consts =
                  Option.value ~default:[] (lookup site.Callgraph.caller)
                in
                eval_actual (Cutoff.table ctx caller) caller_consts a
              | _ -> None)
            sites
        in
        match vals with
        | Some v :: rest when List.for_all (fun x -> x = Some v) rest ->
          Some (f, v)
        | _ -> None)
      formals
    |> List.filter_map Fun.id

let update ctx ~(prev : t option) : t =
  {
    consts =
      Cutoff.top_down ctx
        ~prev:(Option.map (fun p -> p.consts) prev)
        ~equal:( = ) (unit_consts ctx);
  }

let compute cg = update (Cutoff.scratch cg) ~prev:None

let constants_of t name =
  Option.value ~default:[] (Hashtbl.find_opt t.consts name)
