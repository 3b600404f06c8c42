open Fortran_front

type profile = {
  sp_name : string;
  sp_desc : string;
  sp_subs : int;
  sp_layers : int;
  sp_fanout : int;
  sp_sub_nests : int;
  sp_main_nests : int;
  sp_depth : int;
  sp_deep_every : int;
  sp_gen : Gen.cfg;
}

(* ------------------------------------------------------------------ *)
(* named profiles                                                      *)
(* ------------------------------------------------------------------ *)

let deep =
  {
    sp_name = "deep";
    sp_desc =
      "deep loop nests: every other nest is a perfect depth-6 nest, the \
       rest general nests to depth 5";
    sp_subs = 6;
    sp_layers = 2;
    sp_fanout = 2;
    sp_sub_nests = 30;
    sp_main_nests = 12;
    sp_depth = 6;
    sp_deep_every = 2;
    sp_gen = { Gen.default with Gen.max_depth = 5 };
  }

let wide =
  {
    sp_name = "wide";
    sp_desc =
      "wide units: few units, each hundreds of statements across many \
       shallow nests (quadratic bucket-planning pressure)";
    sp_subs = 2;
    sp_layers = 1;
    sp_fanout = 1;
    sp_sub_nests = 130;
    sp_main_nests = 110;
    sp_depth = 2;
    sp_deep_every = 0;
    sp_gen = { Gen.default with Gen.max_depth = 2; Gen.max_body = 4 };
  }

let many_units =
  {
    sp_name = "many-units";
    sp_desc =
      "hundreds of units under a layered call graph (interprocedural \
       summary walk, per-unit cache volume)";
    sp_subs = 240;
    sp_layers = 4;
    sp_fanout = 3;
    sp_sub_nests = 12;
    sp_main_nests = 6;
    sp_depth = 4;
    sp_deep_every = 6;
    sp_gen = { Gen.default with Gen.max_depth = 3 };
  }

let all = [ deep; wide; many_units ]
let names = List.map (fun p -> p.sp_name) all

let by_name name =
  let canon s =
    String.lowercase_ascii (String.map (function '_' -> '-' | c -> c) s)
  in
  List.find_opt (fun p -> canon p.sp_name = canon name) all

(* ------------------------------------------------------------------ *)
(* resizing                                                            *)
(* ------------------------------------------------------------------ *)

let scale f p =
  let s x = max 1 (int_of_float (Float.round (f *. float_of_int x))) in
  let subs = s p.sp_subs in
  {
    p with
    sp_subs = subs;
    sp_layers = min p.sp_layers subs;
    sp_sub_nests = s p.sp_sub_nests;
    sp_main_nests = s p.sp_main_nests;
  }

let smoke p =
  match p.sp_name with
  | "deep" -> scale 0.25 p
  | "wide" -> scale 0.3 p
  | _ -> scale 0.15 p

(* ------------------------------------------------------------------ *)
(* program assembly                                                    *)
(* ------------------------------------------------------------------ *)

let sub_name i = Printf.sprintf "S%04d" i

(* every unit re-establishes its own scalar state, so subroutine bodies
   stay interpretable at fuzz scale *)
let sub_prologue () =
  [
    Ast.mk (Ast.Assign (Ast.Var "T", Ast.Real 1.5));
    Ast.mk (Ast.Assign (Ast.Var "S", Ast.Real 0.0));
    Ast.mk (Ast.Assign (Ast.Var "K", Ast.Int 0));
  ]

let call_stmt callee =
  Ast.mk
    (Ast.Call (callee, [ Ast.Var "A"; Ast.Var "B"; Ast.Var "C"; Ast.Var "N" ]))

(* spread [calls] evenly between the nest [blocks]; calls sit at
   statement level (never inside a generated loop), so the fuzz
   oracles' per-unit scope stays exact *)
let interleave blocks calls =
  let nb = List.length blocks and nc = List.length calls in
  if nc = 0 then List.concat blocks
  else if nb = 0 then calls
  else begin
    let calls = Array.of_list calls in
    let used = ref 0 in
    let out =
      List.concat
        (List.mapi
           (fun i b ->
             let due = (i + 1) * nc / nb in
             let cs = ref [] in
             while !used < due do
               cs := calls.(!used) :: !cs;
               incr used
             done;
             b @ List.rev !cs)
           blocks)
    in
    out @ Array.to_list (Array.sub calls !used (nc - !used))
  end

let nest_k p rng k =
  if p.sp_deep_every > 0 && k mod p.sp_deep_every = p.sp_deep_every - 1 then
    [ Gen.perfect p.sp_gen rng (min p.sp_depth Gen.depth_limit) ]
  else Gen.nest p.sp_gen rng

let validate p =
  if p.sp_subs < 1 then invalid_arg "Stress: sp_subs must be >= 1";
  if p.sp_layers < 1 || p.sp_layers > p.sp_subs then
    invalid_arg "Stress: sp_layers must be in [1, sp_subs]";
  if p.sp_depth > Gen.depth_limit || p.sp_gen.Gen.max_depth > Gen.depth_limit
  then
    invalid_arg
      (Printf.sprintf "Stress: nest depth exceeds Gen.depth_limit (%d)"
         Gen.depth_limit)

let generate ?(seed = 42) p =
  validate p;
  let rng = Random.State.make [| 0x57e55; seed |] in
  (* contiguous layer partition of subroutine indices 0..subs-1 *)
  let layer_of i = i * p.sp_layers / p.sp_subs in
  let members l =
    List.filter
      (fun i -> layer_of i = l)
      (List.init p.sp_subs (fun i -> i))
  in
  let callees_of i =
    let l = layer_of i in
    if l + 1 >= p.sp_layers then []
    else
      let next = Array.of_list (members (l + 1)) in
      List.init
        (min p.sp_fanout (Array.length next))
        (fun _ -> next.(Random.State.int rng (Array.length next)))
      |> List.sort_uniq compare
  in
  let sub i =
    let blocks = List.init p.sp_sub_nests (nest_k p rng) in
    let calls = List.map (fun j -> call_stmt (sub_name j)) (callees_of i) in
    {
      Ast.uname = sub_name i;
      kind = Ast.Subroutine [ "A"; "B"; "C"; "N" ];
      decls = Gen.decls;
      implicit_none = false;
      implicits = [];
      body = sub_prologue () @ interleave blocks calls;
    }
  in
  let subs = List.init p.sp_subs sub in
  let main =
    let blocks = List.init p.sp_main_nests (nest_k p rng) in
    let calls = List.map (fun i -> call_stmt (sub_name i)) (members 0) in
    let n_val = 5 + Random.State.int rng 6 in
    {
      Ast.uname = "STRESS";
      kind = Ast.Main;
      decls = Gen.decls;
      implicit_none = false;
      implicits = [];
      body =
        Gen.prologue n_val
        @ interleave blocks calls
        @ Gen.checksum_stmts ();
    }
  in
  (* canonical preorder ids: the same (seed, profile) fingerprints
     identically in any process, whatever the global sid counter says *)
  Ast.renumber_program { Ast.punits = main :: subs }

let source ?seed p = Pretty.program_to_string (generate ?seed p)

let lines src =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 src

(* grow the unit count only: lines are linear in it, so the target is
   reached in a couple of iterations without overshooting (scaling
   nests too would make line count quadratic in the factor) *)
let scale_to_lines ?seed ~target p =
  let resize subs =
    let subs = max 1 subs in
    { p with sp_subs = subs; sp_layers = min p.sp_layers subs }
  in
  let rec go p tries =
    let src = source ?seed p in
    let n = lines src in
    if n >= target || tries <= 0 then (p, src)
    else
      let f = float_of_int target /. float_of_int n *. 1.03 in
      go (resize (int_of_float (ceil (float_of_int p.sp_subs *. f)))) (tries - 1)
  in
  go p 6

let fingerprint p = Content.to_hex (Content.program (Ast.renumber_program p))

(* ------------------------------------------------------------------ *)
(* fuzz-scale variants                                                 *)
(* ------------------------------------------------------------------ *)

let tiny p =
  {
    p with
    sp_subs = min p.sp_subs 3;
    sp_layers = min p.sp_layers 2;
    sp_fanout = 1;
    sp_sub_nests = min p.sp_sub_nests 2;
    sp_main_nests = min p.sp_main_nests 2;
    sp_depth = min p.sp_depth 4;
    sp_gen = { p.sp_gen with Gen.max_depth = min p.sp_gen.Gen.max_depth 3 };
  }

let fuzz_gen p rng = generate ~seed:(Random.State.bits rng) (tiny p)
