(* The incremental interprocedural summary.

   The load-bearing property: whatever sequence of edits a program
   went through, [Summary.update ~prev] of each version observes
   exactly what a from-scratch build of that version observes — the
   call oracle and section pseudo-references at every CALL, the
   formal constants and the alias pairs of every unit.  The edits
   change facts in both directions (a new COMMON write, a changed
   constant actual, a dropped unit or call, a copied call that can
   make the graph recursive, and a return to an earlier version), so
   the cut-off is exercised where it must recompute as well as where
   it may reuse. *)

open Fortran_front
open Util
module Summary = Interproc.Summary

(* Every fact a unit's intraprocedural analysis can read. *)
let facts (s : Summary.t) (p : Ast.program) =
  List.map
    (fun (u : Ast.program_unit) ->
      let oracle = Summary.oracle_for s u and refs = Summary.call_refs_for s u in
      let calls =
        Ast.fold_stmts
          (fun acc (st : Ast.stmt) ->
            match st.Ast.node with
            | Ast.Call _ -> (st.Ast.sid, oracle st, refs st) :: acc
            | _ -> acc)
          [] u.Ast.body
      in
      ( u.Ast.uname,
        calls,
        Interproc.Ipconst.constants_of (Summary.ipconst s) u.Ast.uname,
        Interproc.Aliases.pairs_of (Summary.aliases s) u.Ast.uname ))
    p.Ast.punits

(* ---- edits: each shares every unit it does not touch ------------ *)

let replace (p : Ast.program) (u : Ast.program_unit) u' =
  { Ast.punits = List.map (fun x -> if x == u then u' else x) p.Ast.punits }

let pick rng = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int rng (List.length l)))

let calls_of (u : Ast.program_unit) =
  Ast.fold_stmts
    (fun acc (s : Ast.stmt) ->
      match s.Ast.node with Ast.Call _ -> s :: acc | _ -> acc)
    [] u.Ast.body

let common_decl =
  {
    Ast.dname = "ZCW";
    dtyp = Ast.Treal;
    dims = [];
    init = None;
    data_init = None;
    common_block = Some "ZCWB";
  }

let with_common (u : Ast.program_unit) =
  if List.exists (fun (d : Ast.decl) -> d.Ast.dname = "ZCW") u.Ast.decls then u
  else { u with Ast.decls = u.Ast.decls @ [ common_decl ] }

let rewrite_stmt (u : Ast.program_unit) sid f =
  {
    u with
    Ast.body =
      Ast.map_stmts (fun s -> if s.Ast.sid = sid then f s else s) u.Ast.body;
  }

(* A leaf (a unit that calls nothing) when there is one. *)
let leaf_or_any rng (p : Ast.program) =
  match pick rng (List.filter (fun u -> calls_of u = []) p.Ast.punits) with
  | Some u -> Some u
  | None -> pick rng p.Ast.punits

let edit rng ~history (p : Ast.program) : string * Ast.program =
  let units = p.Ast.punits in
  let main =
    List.find_opt (fun (u : Ast.program_unit) -> u.Ast.kind = Ast.Main) units
  in
  match Random.State.int rng 8 with
  | 0 -> (
    (* a new COMMON write: callers' oracles gain the variable *)
    match leaf_or_any rng p with
    | None -> ("none", p)
    | Some u ->
      let w = Ast.mk (Ast.Assign (Ast.Var "ZCW", Ast.Real 1.0)) in
      let u' = with_common u in
      ("common write in " ^ u.Ast.uname,
       replace p u { u' with Ast.body = w :: u'.Ast.body }))
  | 1 -> (
    (* the COMMON declared (not written) further up *)
    match pick rng units with
    | None -> ("none", p)
    | Some u -> ("common decl in " ^ u.Ast.uname, replace p u (with_common u)))
  | 2 -> (
    (* a changed constant actual, in the main unit when it calls *)
    let callers = List.filter (fun u -> calls_of u <> []) units in
    let u =
      match main with
      | Some m when calls_of m <> [] && Random.State.bool rng -> Some m
      | _ -> pick rng callers
    in
    match u with
    | None -> ("none", p)
    | Some u -> (
      match pick rng (calls_of u) with
      | Some ({ Ast.node = Ast.Call (callee, (_ :: _ as actuals)); _ } as s) ->
        let i = Random.State.int rng (List.length actuals) in
        let k = Ast.Int (1 + Random.State.int rng 2) in
        let actuals = List.mapi (fun j a -> if j = i then k else a) actuals in
        ( Printf.sprintf "constant actual %d of %s in %s" i callee u.Ast.uname,
          replace p u
            (rewrite_stmt u s.Ast.sid (fun s ->
                 { s with Ast.node = Ast.Call (callee, actuals) })) )
      | _ -> ("none", p)))
  | 3 -> (
    (* content only: no fact can change *)
    match pick rng units with
    | None -> ("none", p)
    | Some u ->
      ( "touch " ^ u.Ast.uname,
        replace p u { u with Ast.body = u.Ast.body @ [ Ast.mk Ast.Continue ] } ))
  | 4 -> (
    (* a subroutine disappears: its callers see an external routine *)
    match pick rng (List.filter (fun u -> u.Ast.kind <> Ast.Main) units) with
    | None -> ("none", p)
    | Some u ->
      ( "drop " ^ u.Ast.uname,
        { Ast.punits = List.filter (fun x -> x != u) units } ))
  | 5 -> (
    (* a call copied into another unit, possibly closing a cycle *)
    match
      (pick rng (List.concat_map calls_of units), pick rng units)
    with
    | Some c, Some u ->
      let c' = Ast.mk c.Ast.node in
      ( "copy call into " ^ u.Ast.uname,
        replace p u { u with Ast.body = c' :: u.Ast.body } )
    | _ -> ("none", p))
  | 6 -> (
    (* a call removed *)
    match pick rng (List.filter (fun u -> calls_of u <> []) units) with
    | None -> ("none", p)
    | Some u -> (
      match pick rng (calls_of u) with
      | None -> ("none", p)
      | Some s ->
        ( "remove call in " ^ u.Ast.uname,
          replace p u
            (rewrite_stmt u s.Ast.sid (fun s -> { s with Ast.node = Ast.Continue }))
        )))
  | _ -> (
    (* back to an earlier version: the facts change back *)
    match pick rng history with
    | Some q -> ("revert", q)
    | None -> ("none", p))

(* ---- the property ------------------------------------------------ *)

let gen_start : (string * Ast.program * int) QCheck2.Gen.t =
  QCheck2.Gen.make_primitive
    ~gen:(fun st ->
      let seed = Random.State.bits st in
      if Random.State.bool st then
        let w =
          List.nth Workloads.all
            (Random.State.int st (List.length Workloads.all))
        in
        (w.Workloads.name, Workloads.program w, seed)
      else
        let pr =
          List.nth Oracle.Stress.all
            (Random.State.int st (List.length Oracle.Stress.all))
        in
        ( "fuzz " ^ pr.Oracle.Stress.sp_name,
          Oracle.Stress.fuzz_gen pr st,
          seed ))
    ~shrink:(fun _ -> Seq.empty)

let steps = 8

let update_equals_scratch =
  QCheck2.Test.make ~count:60
    ~name:"update ~prev equals a from-scratch summary along random edits"
    ~print:(fun (name, _, seed) -> Printf.sprintf "%s, edit seed %d" name seed)
    gen_start
    (fun (_, p0, seed) ->
      let rng = Random.State.make [| seed |] in
      let rec go step history p s =
        if step = steps then true
        else begin
          let what, p' = edit rng ~history p in
          let s' = Summary.update ~prev:(Some s) p' in
          if facts s' p' <> facts (Summary.analyze p') p' then
            QCheck2.Test.fail_reportf "step %d (%s): incremental facts differ"
              step what;
          go (step + 1) (p :: history) p' s'
        end
      in
      go 0 [] p0 (Summary.analyze p0))

(* ---- the cut-off, on a fixed program ----------------------------- *)

let src =
  "      PROGRAM P\n\
  \      COMMON /ZCWB/ ZCW\n\
  \      REAL A(10)\n\
  \      CALL MID(A, 4)\n\
  \      END\n\
  \      SUBROUTINE MID(B, N)\n\
  \      REAL B(10)\n\
  \      CALL LEAF(B, N)\n\
  \      END\n\
  \      SUBROUTINE LEAF(C, M)\n\
  \      REAL C(10)\n\
  \      C(M) = 0.0\n\
  \      END\n\
  \      SUBROUTINE OTHER(X)\n\
  \      X = 1.0\n\
  \      END\n"

let unit_named (p : Ast.program) name =
  List.find (fun (u : Ast.program_unit) -> u.Ast.uname = name) p.Ast.punits

let check_scratch what s p =
  check_bool (what ^ ": equals from scratch") true
    (facts s p = facts (Summary.analyze p) p)

let suite =
  [
    case "from scratch recomputes every unit once" (fun () ->
        let p = parse src in
        check_int "recomputed" 4 (Summary.recomputed (Summary.analyze p)));
    case "a fact-preserving leaf edit recomputes only the leaf" (fun () ->
        let p = parse src in
        let s = Summary.analyze p in
        let leaf = unit_named p "LEAF" in
        let p' =
          replace p leaf
            { leaf with Ast.body = leaf.Ast.body @ [ Ast.mk Ast.Continue ] }
        in
        let s' = Summary.update ~prev:(Some s) p' in
        check_int "recomputed" 1 (Summary.recomputed s');
        check_scratch "touch" s' p');
    case "an unchanged program recomputes nothing" (fun () ->
        let p = parse src in
        let s = Summary.analyze p in
        check_int "recomputed" 0
          (Summary.recomputed (Summary.update ~prev:(Some s) p)));
    case "a COMMON write in a leaf reaches its callers and back" (fun () ->
        let p = parse src in
        let s = Summary.analyze p in
        let leaf = unit_named p "LEAF" in
        let leaf' = with_common leaf in
        let p' =
          replace p leaf
            {
              leaf' with
              Ast.body =
                Ast.mk (Ast.Assign (Ast.Var "ZCW", Ast.Real 1.0)) :: leaf'.Ast.body;
            }
        in
        let s' = Summary.update ~prev:(Some s) p' in
        check_scratch "write" s' p';
        let mid_call s p =
          let mid = unit_named p "MID" in
          Summary.oracle_for s mid (List.hd (calls_of mid))
        in
        check_bool "MID's CALL LEAF now modifies ZCW" true
          (match mid_call s' p' with
          | Some e -> List.mem "ZCW" e.Scalar_analysis.Defuse.ce_mods
          | None -> false);
        check_bool "facts changed" true (mid_call s p <> mid_call s' p');
        (* and back: the update from the edited version restores them *)
        let s'' = Summary.update ~prev:(Some s') p in
        check_scratch "revert" s'' p;
        check_bool "facts restored" true (mid_call s p = mid_call s'' p));
    case "a changed constant actual in main reaches the callees" (fun () ->
        let p = parse src in
        let s = Summary.analyze p in
        let consts s name = Interproc.Ipconst.constants_of (Summary.ipconst s) name in
        check_bool "N = 4, M = 4" true
          (consts s "MID" = [ ("N", 4) ] && consts s "LEAF" = [ ("M", 4) ]);
        let main = unit_named p "P" in
        let call = List.hd (calls_of main) in
        let p' =
          replace p main
            (rewrite_stmt main call.Ast.sid (fun st ->
                 { st with Ast.node = Ast.Call ("MID", [ Ast.Var "A"; Ast.Int 7 ]) }))
        in
        let s' = Summary.update ~prev:(Some s) p' in
        check_scratch "changed" s' p';
        check_bool "N = 7, M = 7" true
          (consts s' "MID" = [ ("N", 7) ] && consts s' "LEAF" = [ ("M", 7) ]);
        check_int "OTHER untouched" 3 (Summary.recomputed s'));
    qcheck_case update_equals_scratch;
  ]
