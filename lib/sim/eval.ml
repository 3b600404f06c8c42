open Fortran_front
open Value

exception Runtime_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

type unit_info = { u : Ast.program_unit; tbl : Symbol.table }

type frame = (string, Store.slot) Hashtbl.t

type signal = Snormal | Sgoto of int | Sreturn | Sstop

type ops = {
  mutable o_flops : int;
  mutable o_mems : int;
  mutable o_intr : int;
  mutable o_iters : int;
  mutable o_calls : int;
}

let fresh_ops () =
  { o_flops = 0; o_mems = 0; o_intr = 0; o_iters = 0; o_calls = 0 }

let add_ops dst src =
  dst.o_flops <- dst.o_flops + src.o_flops;
  dst.o_mems <- dst.o_mems + src.o_mems;
  dst.o_intr <- dst.o_intr + src.o_intr;
  dst.o_iters <- dst.o_iters + src.o_iters;
  dst.o_calls <- dst.o_calls + src.o_calls

let op_counts o =
  {
    Perf.Machine.flops = float_of_int o.o_flops;
    mems = float_of_int o.o_mems;
    intrinsics = float_of_int o.o_intr;
    loop_iters = float_of_int o.o_iters;
    calls = float_of_int o.o_calls;
  }

type loop = {
  l_stmt : Ast.stmt;
  l_header : Ast.do_header;
  l_body : Ast.stmt list;
  l_trip : int;
  l_value_at : int -> value;
  l_iv : Store.cell;
}

type 's ctx = {
  units : (string, unit_info) Hashtbl.t;
  commons : frame;
  max_steps : int;
  steps : int Atomic.t;
  hooks : 's hooks;
  side : 's;
  mutable out_rev : string list;
  mutable depth : int;
  mutable in_parallel : bool;
  ops : ops;
}

and 's hooks = {
  stmt : 's ctx -> unit_info -> Ast.stmt -> unit;
  call_fn : 's ctx -> unit;
  note : 's ctx -> write:bool -> elem:bool -> string -> Store.buf -> int -> unit;
  loop : 's ctx -> unit_info -> frame -> Ast.stmt -> Ast.do_header -> Ast.stmt list -> signal;
  iteration : 's ctx -> unit_info -> frame -> loop -> int -> signal;
  par_do : 's ctx -> unit_info -> frame -> loop -> signal;
}

let extent bounds =
  List.fold_left (fun acc (lo, hi) -> acc * max 1 (hi - lo + 1)) 1 bounds

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let find_slot ui (frame : frame) v : Store.slot =
  match Hashtbl.find_opt frame v with
  | Some s -> s
  | None -> (
    (* late creation: undeclared scalar local *)
    match Symbol.lookup ui.tbl v with
    | Some { kind = Symbol.Scalar; typ; param; _ } ->
      let b = Store.alloc typ 1 in
      (match param with
      | Some _ -> (
        match Symbol.param_value ui.tbl v with
        | Some n -> Store.set b 0 (VI n)
        | None -> ())
      | None -> ());
      let s = Store.Scalar { Store.cbuf = b; coff = 0 } in
      Hashtbl.replace frame v s;
      s
    | _ -> err "variable %s has no storage in %s" v ui.u.Ast.uname)

let read c ~elem var buf off =
  c.ops.o_mems <- c.ops.o_mems + 1;
  c.hooks.note c ~write:false ~elem var buf off;
  Store.get buf off

let write c ~elem var buf off v =
  c.ops.o_mems <- c.ops.o_mems + 1;
  c.hooks.note c ~write:true ~elem var buf off;
  Store.set buf off v

let rec eval c ui frame (e : Ast.expr) : value =
  match e with
  | Ast.Int n -> VI n
  | Ast.Real f -> VR f
  | Ast.Logic b -> VL b
  | Ast.Str s -> VS s
  | Ast.Var v -> (
    match find_slot ui frame v with
    | Store.Scalar cell -> read c ~elem:false v cell.Store.cbuf cell.Store.coff
    | Store.Arr _ -> err "array %s used as a scalar value" v)
  | Ast.Index (b, args) -> (
    match Symbol.lookup ui.tbl b with
    | Some { kind = Symbol.Array _; _ } -> (
      let idxs = indices c ui frame args in
      match find_slot ui frame b with
      | Store.Arr a -> read c ~elem:true b a.Store.abuf (Store.offset a idxs)
      | Store.Scalar _ -> err "%s is not an array" b)
    | Some { kind = Symbol.Intrinsic; _ } -> eval_intrinsic c ui frame b args
    | Some { kind = Symbol.External_fun; _ } ->
      eval_function_call c ui frame b args
    | _ -> err "cannot evaluate %s(...)" b)
  | Ast.Un (Ast.Neg, a) -> (
    match eval c ui frame a with
    | VI n -> VI (-n)
    | VR f -> VR (-.f)
    | v -> err "cannot negate %s" (Format.asprintf "%a" pp_value v))
  | Ast.Un (Ast.Not, a) -> VL (not (to_bool (eval c ui frame a)))
  | Ast.Bin (op, a, b) -> (
    match op with
    | Ast.And -> VL (to_bool (eval c ui frame a) && to_bool (eval c ui frame b))
    | Ast.Or -> VL (to_bool (eval c ui frame a) || to_bool (eval c ui frame b))
    | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow ->
      c.ops.o_flops <- c.ops.o_flops + 1;
      arith op (eval c ui frame a) (eval c ui frame b)
    | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne ->
      c.ops.o_flops <- c.ops.o_flops + 1;
      compare_vals op (eval c ui frame a) (eval c ui frame b))

and indices c ui frame args = List.map (fun a -> to_int (eval c ui frame a)) args

and arith op a b =
  match (a, b) with
  | VI x, VI y -> (
    match op with
    | Ast.Add -> VI (x + y)
    | Ast.Sub -> VI (x - y)
    | Ast.Mul -> VI (x * y)
    | Ast.Div -> if y = 0 then err "integer division by zero" else VI (x / y)
    | Ast.Pow ->
      if y < 0 then VI 0
      else VI (int_of_float (Float.round (float_of_int x ** float_of_int y)))
    | _ -> assert false)
  | (VI _ | VR _), (VI _ | VR _) -> (
    let x = to_float a and y = to_float b in
    match op with
    | Ast.Add -> VR (x +. y)
    | Ast.Sub -> VR (x -. y)
    | Ast.Mul -> VR (x *. y)
    | Ast.Div -> VR (x /. y)
    | Ast.Pow -> VR (x ** y)
    | _ -> assert false)
  | _ -> err "bad operands for arithmetic"

and compare_vals op a b =
  let x = to_float a and y = to_float b in
  let r =
    match op with
    | Ast.Lt -> x < y
    | Ast.Le -> x <= y
    | Ast.Gt -> x > y
    | Ast.Ge -> x >= y
    | Ast.Eq -> x = y
    | Ast.Ne -> x <> y
    | _ -> assert false
  in
  VL r

and eval_intrinsic c ui frame name args : value =
  c.ops.o_intr <- c.ops.o_intr + 1;
  let vs () = List.map (eval c ui frame) args in
  let one () =
    match vs () with [ v ] -> v | _ -> err "%s expects one argument" name
  in
  let two () =
    match vs () with
    | [ a; b ] -> (a, b)
    | _ -> err "%s expects two arguments" name
  in
  match name with
  | "ABS" -> (
    match one () with VI n -> VI (abs n) | v -> VR (Float.abs (to_float v)))
  | "MOD" -> (
    match two () with
    | VI a, VI b -> if b = 0 then err "MOD by zero" else VI (a mod b)
    | a, b -> VR (Float.rem (to_float a) (to_float b)))
  | "MAX" | "MIN" -> (
    let vs = vs () in
    let all_int = List.for_all (function VI _ -> true | _ -> false) vs in
    let sel = if name = "MAX" then Float.max else Float.min in
    let r = List.fold_left (fun acc v -> sel acc (to_float v))
        (to_float (List.hd vs)) (List.tl vs)
    in
    if all_int then VI (int_of_float r) else VR r)
  | "SQRT" -> VR (sqrt (to_float (one ())))
  | "EXP" -> VR (exp (to_float (one ())))
  | "LOG" -> VR (log (to_float (one ())))
  | "SIN" -> VR (sin (to_float (one ())))
  | "COS" -> VR (cos (to_float (one ())))
  | "TAN" -> VR (tan (to_float (one ())))
  | "FLOAT" | "DBLE" | "SNGL" -> VR (to_float (one ()))
  | "INT" -> VI (to_int (one ()))
  | "NINT" -> VI (int_of_float (Float.round (to_float (one ()))))
  | "SIGN" -> (
    match two () with
    | a, b ->
      let m = Float.abs (to_float a) in
      let r = if to_float b < 0.0 then -.m else m in
      (match a with VI _ -> VI (int_of_float r) | _ -> VR r))
  | _ -> err "unknown intrinsic %s" name

(* ------------------------------------------------------------------ *)
(* Frames and calls                                                    *)
(* ------------------------------------------------------------------ *)

and build_frame c ui (bindings : (string * Store.slot) list) : frame =
  let frame : frame = Hashtbl.create 16 in
  List.iter (fun (n, s) -> Hashtbl.replace frame n s) bindings;
  let common_slot name =
    match Hashtbl.find_opt c.commons name with
    | Some s -> s
    | None -> err "COMMON variable %s was not pre-allocated" name
  in
  (* pass 1: scalars (parameters seeded), so array dims can use them *)
  List.iter
    (fun (i : Symbol.info) ->
      if not (Hashtbl.mem frame i.name) then
        match i.kind with
        | Symbol.Scalar ->
          if i.common <> None then
            Hashtbl.replace frame i.name (common_slot i.name)
          else begin
            let b = Store.alloc i.typ 1 in
            (match Symbol.param_value ui.tbl i.name with
            | Some n -> Store.set b 0 (VI n)
            | None -> (
              (* DATA initial value: literals only *)
              match i.data with
              | Some (Ast.Int n) -> Store.set b 0 (VI n)
              | Some (Ast.Real f) -> Store.set b 0 (VR f)
              | Some (Ast.Logic l) -> Store.set b 0 (VL l)
              | Some (Ast.Un (Ast.Neg, Ast.Int n)) -> Store.set b 0 (VI (-n))
              | Some (Ast.Un (Ast.Neg, Ast.Real f)) -> Store.set b 0 (VR (-.f))
              | Some _ | None -> ()));
            Hashtbl.replace frame i.name
              (Store.Scalar { Store.cbuf = b; coff = 0 })
          end
        | Symbol.Array _ | Symbol.Routine | Symbol.External_fun
        | Symbol.Intrinsic -> ())
    (Symbol.infos ui.tbl);
  (* pass 2: arrays (bounds may reference formals and parameters) *)
  List.iter
    (fun (i : Symbol.info) ->
      match i.kind with
      | Symbol.Array dims ->
        let bounds =
          List.map
            (fun (lo, hi) ->
              let lo = to_int (eval c ui frame lo) in
              let hi =
                match hi with
                | Ast.Int n when n = max_int ->
                  (* assumed-size: extent comes from the storage *)
                  max_int
                | e -> to_int (eval c ui frame e)
              in
              (lo, hi))
            dims
        in
        (match Hashtbl.find_opt frame i.name with
        | Some (Store.Arr view) ->
          (* formal array: reshape the passed storage to our bounds *)
          let bounds =
            (* resolve assumed-size final extent against storage *)
            match List.rev bounds with
            | (lo, hi) :: rest when hi = max_int ->
              let avail = Store.length view.Store.abuf - view.Store.base in
              let extent = max 1 (avail / max 1 (extent rest)) in
              List.rev ((lo, lo + extent - 1) :: rest)
            | _ -> bounds
          in
          Hashtbl.replace frame i.name (Store.Arr { view with Store.bounds })
        | Some (Store.Scalar _) -> ()
        | None ->
          Hashtbl.replace frame i.name
            (if i.common <> None then common_slot i.name
             else
               Store.Arr
                 { Store.abuf = Store.alloc i.typ (extent bounds); base = 0; bounds }))
      | Symbol.Scalar | Symbol.Routine | Symbol.External_fun
      | Symbol.Intrinsic -> ())
    (Symbol.infos ui.tbl);
  frame

and bind_actuals c caller_ui caller_frame (callee : unit_info)
    (formals : string list) (actuals : Ast.expr list) :
    (string * Store.slot) list =
  let bind formal actual =
    match actual with
    | Ast.Var v -> (formal, find_slot caller_ui caller_frame v)
    | Ast.Index (b, idxs) when Symbol.is_array caller_ui.tbl b -> (
      let idxs = indices c caller_ui caller_frame idxs in
      match find_slot caller_ui caller_frame b with
      | Store.Arr a ->
        let off = Store.offset a idxs in
        if Symbol.is_array callee.tbl formal then
          (* the callee sees storage starting at this element *)
          (formal, Store.Arr { a with Store.base = off; bounds = [] })
        else (formal, Store.Scalar { Store.cbuf = a.Store.abuf; coff = off })
      | Store.Scalar _ -> err "%s is not an array" b)
    | e ->
      (* expression argument: pass a temporary *)
      let b = Store.alloc (Symbol.typ_of callee.tbl formal) 1 in
      Store.set b 0 (eval c caller_ui caller_frame e);
      (formal, Store.Scalar { Store.cbuf = b; coff = 0 })
  in
  let rec go fs acts =
    match (fs, acts) with
    | [], _ -> []
    | f :: fs, a :: acts -> bind f a :: go fs acts
    | f :: _, [] -> err "missing actual argument for %s" f
  in
  go formals actuals

and call_unit c (callee : unit_info) (bindings : (string * Store.slot) list) :
    frame =
  c.depth <- c.depth + 1;
  if c.depth > 200 then err "call depth exceeded (recursion?)";
  let frame = build_frame c callee bindings in
  (match exec_block c callee frame callee.u.Ast.body with
  | Snormal | Sreturn -> ()
  | Sstop ->
    c.depth <- c.depth - 1;
    raise Exit
  | Sgoto l -> err "GOTO %d escapes %s" l callee.u.Ast.uname);
  c.depth <- c.depth - 1;
  frame

and eval_function_call c ui frame name args : value =
  match Hashtbl.find_opt c.units name with
  | Some callee -> (
    let formals =
      match callee.u.Ast.kind with
      | Ast.Function (_, fs) -> fs
      | _ -> err "%s is not a function" name
    in
    c.ops.o_calls <- c.ops.o_calls + 1;
    c.hooks.call_fn c;
    let bindings = bind_actuals c ui frame callee formals args in
    match Hashtbl.find_opt (call_unit c callee bindings) name with
    | Some (Store.Scalar cell) -> Store.get_cell cell
    | _ -> err "function %s returned no value" name)
  | None -> err "unknown function %s (external functions must be supplied)" name

(* ------------------------------------------------------------------ *)
(* Statement execution                                                 *)
(* ------------------------------------------------------------------ *)

and exec_block c ui frame (stmts : Ast.stmt list) : signal =
  let rec from = function
    | [] -> Snormal
    | s :: rest -> (
      match exec_stmt c ui frame s with
      | Snormal -> from rest
      | Sgoto l -> (
        (* a label in this block? (possibly behind us) *)
        let rec labelled = function
          | [] -> Sgoto l
          | (s : Ast.stmt) :: _ as tail when s.Ast.label = Some l -> from tail
          | _ :: tail -> labelled tail
        in
        labelled stmts)
      | (Sreturn | Sstop) as sg -> sg)
  in
  from stmts

and exec_stmt c ui frame (s : Ast.stmt) : signal =
  if Atomic.fetch_and_add c.steps 1 >= c.max_steps then
    err "statement budget exhausted";
  c.hooks.stmt c ui s;
  match s.Ast.node with
  | Ast.Continue -> Snormal
  | Ast.Goto l -> Sgoto l
  | Ast.Return -> Sreturn
  | Ast.Stop -> Sstop
  | Ast.Assign (lhs, rhs) -> (
    let v = eval c ui frame rhs in
    match lhs with
    | Ast.Var name -> (
      match find_slot ui frame name with
      | Store.Scalar cell ->
        write c ~elem:false name cell.Store.cbuf cell.Store.coff v;
        Snormal
      | Store.Arr _ -> err "cannot assign whole array %s" name)
    | Ast.Index (b, idxs) -> (
      let idxs = indices c ui frame idxs in
      match find_slot ui frame b with
      | Store.Arr a ->
        write c ~elem:true b a.Store.abuf (Store.offset a idxs) v;
        Snormal
      | Store.Scalar _ -> err "%s is not an array" b)
    | _ -> err "bad assignment target")
  | Ast.Print args ->
    let line = Abi.print_line (List.map (eval c ui frame) args) in
    c.out_rev <- line :: c.out_rev;
    Snormal
  | Ast.If (branches, els) ->
    let rec pick = function
      | [] -> exec_block c ui frame els
      | (cond, body) :: rest ->
        if to_bool (eval c ui frame cond) then exec_block c ui frame body
        else pick rest
    in
    pick branches
  | Ast.Call (name, args) -> (
    match Hashtbl.find_opt c.units name with
    | Some callee ->
      let formals =
        match callee.u.Ast.kind with
        | Ast.Subroutine fs -> fs
        | Ast.Function (_, fs) -> fs
        | Ast.Main -> err "cannot CALL the main program"
      in
      c.ops.o_calls <- c.ops.o_calls + 1;
      let bindings = bind_actuals c ui frame callee formals args in
      ignore (call_unit c callee bindings);
      Snormal
    | None -> err "unknown subroutine %s" name)
  | Ast.Do (h, body) -> c.hooks.loop c ui frame s h body

and exec_do c ui frame (s : Ast.stmt) (h : Ast.do_header) body : signal =
  let lo = eval c ui frame h.Ast.lo in
  let hi = eval c ui frame h.Ast.hi in
  let step =
    match h.Ast.step with None -> VI 1 | Some e -> eval c ui frame e
  in
  let is_int =
    match (lo, hi, step) with VI _, VI _, VI _ -> true | _ -> false
  in
  let iv =
    match find_slot ui frame h.Ast.dvar with
    | Store.Scalar cell -> cell
    | Store.Arr _ -> err "loop variable %s is an array" h.Ast.dvar
  in
  let trip =
    if is_int then begin
      let l = to_int lo and hh = to_int hi and st = to_int step in
      if st = 0 then err "zero DO step";
      max 0 (((hh - l) + st) / st)
    end
    else begin
      let l = to_float lo and hh = to_float hi and st = to_float step in
      if st = 0.0 then err "zero DO step";
      max 0 (int_of_float (Float.trunc (((hh -. l) +. st) /. st)))
    end
  in
  let value_at k =
    if is_int then VI (to_int lo + (k * to_int step))
    else VR (to_float lo +. (float_of_int k *. to_float step))
  in
  (* F77: the DO variable receives its initial value even when the
     loop runs zero times *)
  Store.set_cell iv (value_at 0);
  let l =
    { l_stmt = s; l_header = h; l_body = body; l_trip = trip;
      l_value_at = value_at; l_iv = iv }
  in
  if h.Ast.parallel && not c.in_parallel then c.hooks.par_do c ui frame l
  else seq_loop c ui frame l

and iteration c ui frame l iv k =
  Store.set_cell iv (l.l_value_at k);
  c.ops.o_iters <- c.ops.o_iters + 1;
  c.hooks.iteration c ui frame l k

and seq_loop c ui frame l =
  let rec go k =
    if k >= l.l_trip then begin
      (* normal completion: F77 leaves the DO variable at the first
         value that failed the iteration test *)
      Store.set_cell l.l_iv (l.l_value_at l.l_trip);
      Snormal
    end
    else
      match iteration c ui frame l l.l_iv k with
      | Snormal -> go (k + 1)
      | other -> other
  in
  go 0

let sequential =
  {
    stmt = (fun _ _ _ -> ());
    call_fn = (fun _ -> ());
    note = (fun _ ~write:_ ~elem:_ _ _ _ -> ());
    loop = exec_do;
    iteration = (fun c ui frame l _ -> exec_block c ui frame l.l_body);
    par_do = seq_loop;
  }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* COMMON storage is allocated before execution starts, so the commons
   table is read-only while the program runs and callee frames can be
   built inside parallel regions.  Bounds of COMMON arrays must be
   compile-time constants for this — true of every COMMON in the
   workload suite and of most of F77 practice. *)
let init_commons (units : unit_info list) : frame =
  let commons = Hashtbl.create 8 in
  List.iter
    (fun ui ->
      List.iter
        (fun (i : Symbol.info) ->
          if i.common <> None && not (Hashtbl.mem commons i.name) then
            match i.kind with
            | Symbol.Scalar ->
              Hashtbl.replace commons i.name
                (Store.Scalar { Store.cbuf = Store.alloc i.typ 1; coff = 0 })
            | Symbol.Array dims ->
              let bounds =
                List.map
                  (fun (lo, hi) ->
                    match
                      (Symbol.const_eval ui.tbl lo, Symbol.const_eval ui.tbl hi)
                    with
                    | Some l, Some h -> (l, h)
                    | _ -> err "COMMON array %s needs constant bounds" i.name)
                  dims
              in
              Hashtbl.replace commons i.name
                (Store.Arr
                   { Store.abuf = Store.alloc i.typ (extent bounds); base = 0; bounds })
            | Symbol.Routine | Symbol.External_fun | Symbol.Intrinsic -> ())
        (Symbol.infos ui.tbl))
    units;
  commons

let load (prog : Ast.program) =
  let units = Hashtbl.create 8 in
  List.iter
    (fun (u : Ast.program_unit) ->
      Hashtbl.replace units u.Ast.uname { u; tbl = Symbol.build u })
    prog.Ast.punits;
  let main =
    match
      List.find_opt
        (fun (u : Ast.program_unit) -> u.Ast.kind = Ast.Main)
        prog.Ast.punits
    with
    | Some u -> Hashtbl.find units u.Ast.uname
    | None -> err "no main program unit"
  in
  (units, main, init_commons (Hashtbl.fold (fun _ ui acc -> ui :: acc) units []))

let context ~units ~commons ~max_steps hooks side =
  {
    units;
    commons;
    max_steps;
    steps = Atomic.make 0;
    hooks;
    side;
    out_rev = [];
    depth = 0;
    in_parallel = false;
    ops = fresh_ops ();
  }

let exec_main c main frame =
  try
    match exec_block c main frame main.u.Ast.body with
    | Snormal | Sreturn | Sstop -> ()
    | Sgoto l -> err "GOTO %d escapes the main program" l
  with
  | Exit -> ()
  | Failure msg -> err "%s" msg

let snapshot c (frame : frame) : (string * float list) list =
  let one name (slot : Store.slot) acc =
    match slot with
    | Store.Scalar cell -> (name, [ to_float (Store.get_cell cell) ]) :: acc
    | Store.Arr a ->
      let size = min (extent a.Store.bounds) (Store.length a.Store.abuf - a.Store.base) in
      let vals = ref [] in
      for i = a.Store.base + size - 1 downto a.Store.base do
        vals := Store.to_float a.Store.abuf i :: !vals
      done;
      (name, !vals) :: acc
  in
  let acc = Hashtbl.fold one frame [] in
  let acc =
    Hashtbl.fold (fun n s acc -> one (Abi.common_key n) s acc) c.commons acc
  in
  Abi.sort_store acc
