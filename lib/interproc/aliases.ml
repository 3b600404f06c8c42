open Fortran_front

(* alias kind: [`Aligned] — both names denote the same storage starting
   at the same element (whole-array actuals), so subscripts compare
   directly; [`May] — overlapping storage with unknown offset (an
   array-element actual): nothing can be compared. *)

module PM = Map.Make (struct
  type t = string * string

  let compare = compare
end)

type kind = Aligned | May

type t = { pairs : (string, kind PM.t) Hashtbl.t }

let norm (a, b) = if String.compare a b <= 0 then (a, b) else (b, a)

let weaker a b = match (a, b) with Aligned, Aligned -> Aligned | _ -> May

(* The alias pairs a unit's formals inherit from its call sites. *)
let unit_pairs ctx ~lookup (u : Ast.program_unit) : kind PM.t =
  let cg = Cutoff.callgraph ctx in
  match Callgraph.formals_of cg u.Ast.uname with
  | None -> PM.empty
  | Some formals ->
    let callee_tbl = Cutoff.table ctx u in
    let add acc p k =
      let p = norm p in
      let k =
        match PM.find_opt p acc with Some old -> weaker old k | None -> k
      in
      PM.add p k acc
    in
    List.fold_left
      (fun acc (site : Callgraph.site) ->
        match Callgraph.unit_named cg site.Callgraph.caller with
        | None -> acc
        | Some caller ->
          let caller_pairs =
            Option.value ~default:PM.empty (lookup site.Callgraph.caller)
          in
          let caller_tbl = Cutoff.table ctx caller in
          (* (formal, base variable, whole-array?) per actual position *)
          let actuals =
            List.mapi
              (fun i a ->
                let f = List.nth_opt formals i in
                match (a : Ast.expr) with
                | Ast.Var v -> (f, Some v, true)
                | Ast.Index (b, _) when not (Symbol.is_fun_call caller_tbl b) ->
                  (f, Some b, false)
                | _ -> (f, None, false))
              site.Callgraph.actuals
          in
          let acc =
            List.fold_left
              (fun acc (i, (fi, bi, wi)) ->
                List.fold_left
                  (fun acc (j, (fj, bj, wj)) ->
                    if i >= j then acc
                    else
                      match (fi, bi, fj, bj) with
                      | Some fi, Some bi, Some fj, Some bj ->
                        (* same base passed twice *)
                        let acc =
                          if String.equal bi bj then
                            add acc (fi, fj) (if wi && wj then Aligned else May)
                          else acc
                        in
                        (* actuals already aliased in the caller *)
                        (match PM.find_opt (norm (bi, bj)) caller_pairs with
                        | Some k -> add acc (fi, fj) (if wi && wj then k else May)
                        | None -> acc)
                      | _ -> acc)
                  acc
                  (List.mapi (fun j x -> (j, x)) actuals))
              acc
              (List.mapi (fun i x -> (i, x)) actuals)
          in
          (* a COMMON variable passed as an actual aliases the formal
             when the callee sees the same COMMON name *)
          List.fold_left
            (fun acc (f, b, whole) ->
              match (f, b) with
              | Some f, Some b
                when Symbol.is_common caller_tbl b && Symbol.is_common callee_tbl b ->
                add acc (f, b) (if whole then Aligned else May)
              | _ -> acc)
            acc actuals)
      PM.empty
      (Callgraph.sites_to cg u.Ast.uname)

let update ctx ~(prev : t option) : t =
  {
    pairs =
      Cutoff.top_down ctx
        ~prev:(Option.map (fun p -> p.pairs) prev)
        ~equal:(PM.equal ( = )) (unit_pairs ctx);
  }

let compute cg = update (Cutoff.scratch cg) ~prev:None

let pairs_of t u =
  PM.bindings (Option.value ~default:PM.empty (Hashtbl.find_opt t.pairs u))
  |> List.map (fun ((a, b), k) -> (a, b, k))

let query t u a b =
  match
    PM.find_opt (norm (a, b))
      (Option.value ~default:PM.empty (Hashtbl.find_opt t.pairs u))
  with
  | Some Aligned -> `Aligned
  | Some May -> `May
  | None -> `No
