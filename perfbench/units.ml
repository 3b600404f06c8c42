(* Program-unit helpers the workloads share. *)

open Fortran_front

let main_name (p : Ast.program) =
  (List.find (fun (u : Ast.program_unit) -> u.Ast.kind = Ast.Main) p.Ast.punits)
    .Ast.uname

let find_unit (p : Ast.program) name =
  List.find (fun (u : Ast.program_unit) -> String.equal u.Ast.uname name) p.Ast.punits

(* The statement every workload edits: the unit's first assignment. *)
let first_assign (u : Ast.program_unit) =
  Ast.fold_stmts
    (fun acc (s : Ast.stmt) ->
      match (acc, s.Ast.node) with None, Ast.Assign _ -> Some s | _ -> acc)
    None u.Ast.body
