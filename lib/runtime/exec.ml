open Fortran_front
open Scalar_analysis
module V = Sim.Value
module Store = Sim.Store
module Eval = Sim.Eval

exception Runtime_error = Eval.Runtime_error

(* raised by a worker to cancel the remaining iterations after a
   GOTO/RETURN/STOP escaped the loop body; never escapes this module *)
exception Abort_loop

type conflict_kind = Flow | Anti | Output

let kind_to_string = function
  | Flow -> "flow"
  | Anti -> "anti"
  | Output -> "output"

type pred = Untracked | Predicted of int | Unpredicted

type conflict = {
  c_loop : Ast.stmt_id;
  c_var : string;
  c_kind : conflict_kind;
  c_offset : int;
  c_iter_a : int;
  c_iter_b : int;
  mutable c_count : int;
  c_pred : pred;
}

let conflict_to_string c =
  Printf.sprintf "loop@%d: %s dependence on %s[%d]: iterations %d and %d%s%s"
    c.c_loop (kind_to_string c.c_kind) c.c_var c.c_offset c.c_iter_a c.c_iter_b
    (if c.c_count > 1 then Printf.sprintf " (%d occurrences)" c.c_count else "")
    (match c.c_pred with
    | Untracked -> ""
    | Predicted id -> Printf.sprintf " [predicted by static dep #%d]" id
    | Unpredicted -> " [UNPREDICTED by the static analysis]")

(* State shared by every context of one run. *)
type global = {
  plans : (Ast.stmt_id, Plan.t) Hashtbl.t;
  schedule : Pool.schedule;
  predict : (Ast.stmt_id -> string -> conflict_kind -> int option) option;
      (* maps an observed conflict back to the static dependence that
         predicted it, if the caller supplied a dependence graph *)
  sink : Telemetry.sink;
  mutable epoch : int;  (* validator epoch; validate mode is sequential *)
  conflicts : (Ast.stmt_id * string * conflict_kind, conflict) Hashtbl.t;
  bad_mutex : Mutex.t;  (* first-wins capture of escaping signals *)
}

(* The runtime's side of an evaluation context.  The coordinator has
   one; each worker of a parallel loop gets its own context with a
   copied frame, so the only shared mutable state during a parallel
   loop is the typed element buffers themselves. *)
type side = {
  g : global;
  mutable mon_iter : int;  (* >= 0 while inside an instrumented loop *)
  mutable mon_loop : Ast.stmt_id;
}

type ctx = side Eval.ctx

(* Per-worker state of one parallel loop: a copied frame whose
   planned variables point at fresh storage. *)
type wstate = {
  wframe : Eval.frame;
  wt : ctx;
  ivc : Store.cell;
  priv_cells : (Store.cell * Store.cell) list;  (* original, private *)
  ind_cells : (Store.cell * V.value * int) list;
      (* private cell, value on loop entry, stride: re-seeded with the
         closed form K0 + k*stride at the start of every iteration *)
  red_cells :
    (string * (Varclass.reduction_op * Store.cell * Store.cell)) list;
  arr_copies : (Store.arr * Store.buf) list;
  mutable last_iter : int;  (* highest iteration index this worker ran *)
  mutable outs : (int * string list) list;  (* PRINT lines per iteration *)
}

(* ------------------------------------------------------------------ *)
(* Shadow-memory monitoring (validate mode only)                       *)
(* ------------------------------------------------------------------ *)

let record_conflict (t : side) var kind off other =
  Telemetry.incr (Telemetry.counter t.g.sink "runtime.validator.conflicts");
  let key = (t.mon_loop, var, kind) in
  match Hashtbl.find_opt t.g.conflicts key with
  | Some c -> c.c_count <- c.c_count + 1
  | None ->
    let c_pred =
      match t.g.predict with
      | None -> Untracked
      | Some f -> (
        match f t.mon_loop var kind with
        | Some dep_id ->
          Telemetry.incr
            (Telemetry.counter t.g.sink "runtime.validator.predicted");
          Predicted dep_id
        | None ->
          Telemetry.incr
            (Telemetry.counter t.g.sink "runtime.validator.unpredicted");
          Unpredicted)
    in
    Hashtbl.replace t.g.conflicts key
      {
        c_loop = t.mon_loop;
        c_var = var;
        c_kind = kind;
        c_offset = off;
        c_iter_a = min other t.mon_iter;
        c_iter_b = max other t.mon_iter;
        c_count = 1;
        c_pred;
      }

let note_read t var (b : Store.buf) off =
  let sh = Store.shadow_of b in
  if sh.Store.w_ep.(off) = t.g.epoch && sh.Store.w_it.(off) <> t.mon_iter
  then record_conflict t var Flow off sh.Store.w_it.(off);
  sh.Store.r_ep.(off) <- t.g.epoch;
  sh.Store.r_it.(off) <- t.mon_iter

let note_write t var (b : Store.buf) off =
  let sh = Store.shadow_of b in
  if sh.Store.r_ep.(off) = t.g.epoch && sh.Store.r_it.(off) <> t.mon_iter
  then record_conflict t var Anti off sh.Store.r_it.(off);
  if sh.Store.w_ep.(off) = t.g.epoch && sh.Store.w_it.(off) <> t.mon_iter
  then record_conflict t var Output off sh.Store.w_it.(off);
  sh.Store.w_ep.(off) <- t.g.epoch;
  sh.Store.w_it.(off) <- t.mon_iter

let note (c : ctx) ~write ~elem:_ var (b : Store.buf) off =
  let t = c.Eval.side in
  if t.mon_iter >= 0 && b.Store.excl_epoch <> t.g.epoch then
    if write then note_write t var b off else note_read t var b off

(* ------------------------------------------------------------------ *)
(* Parallel-loop policies                                              *)
(* ------------------------------------------------------------------ *)

let plan_of (c : ctx) ui frame (l : Eval.loop) =
  let plan =
    match Hashtbl.find_opt c.Eval.side.g.plans l.Eval.l_stmt.Ast.sid with
    | Some p -> p
    | None -> Plan.trivial l.Eval.l_header.Ast.dvar
  in
  (* planned scalars must exist in the frame: the validator excludes
     their storage, workers seed private copies from it, and the join
     writes last values and reductions back to it *)
  let ensure v =
    try ignore (Eval.find_slot ui frame v) with Runtime_error _ -> ()
  in
  List.iter ensure plan.Plan.p_privates;
  List.iter (fun (v, _) -> ensure v) plan.Plan.p_inductions;
  List.iter (fun (v, _) -> ensure v) plan.Plan.p_reductions;
  plan

(* Instrumented sequential execution of a PARALLEL DO: every element
   access inside is stamped with its iteration number; accesses to
   storage the plan privatizes are excluded via the epoch tag. *)
let run_validated (c : ctx) ui frame (l : Eval.loop) : Eval.signal =
  let t = c.Eval.side in
  let plan = plan_of c ui frame l in
  t.g.epoch <- t.g.epoch + 1;
  let epoch = t.g.epoch in
  let exclude v =
    match Hashtbl.find_opt frame v with
    | Some (Store.Scalar cell) -> cell.Store.cbuf.Store.excl_epoch <- epoch
    | Some (Store.Arr a) -> a.Store.abuf.Store.excl_epoch <- epoch
    | None -> ()
  in
  exclude l.Eval.l_header.Ast.dvar;
  List.iter exclude plan.Plan.p_privates;
  List.iter (fun (v, _) -> exclude v) plan.Plan.p_inductions;
  List.iter (fun (v, _) -> exclude v) plan.Plan.p_reductions;
  List.iter exclude plan.Plan.p_arrays;
  let saved_iter = t.mon_iter and saved_loop = t.mon_loop in
  c.Eval.in_parallel <- true;
  t.mon_loop <- l.Eval.l_stmt.Ast.sid;
  let bad = ref None in
  let k = ref 0 in
  while !bad = None && !k < l.Eval.l_trip do
    t.mon_iter <- !k;
    (match Eval.iteration c ui frame l l.Eval.l_iv !k with
    | Eval.Snormal -> ()
    | other -> bad := Some other);
    incr k
  done;
  t.mon_iter <- saved_iter;
  t.mon_loop <- saved_loop;
  c.Eval.in_parallel <- false;
  match !bad with
  | Some other -> other
  | None ->
    Store.set_cell l.Eval.l_iv (l.Eval.l_value_at l.Eval.l_trip);
    Eval.Snormal

let induction_value k0 stride k : V.value =
  match k0 with
  | V.VI x -> V.VI (x + (stride * k))
  | V.VR x -> V.VR (x +. float_of_int (stride * k))
  | (V.VL _ | V.VS _) as v -> v

let reduction_identity op (cell : Store.cell) : V.value =
  let is_int =
    match cell.Store.cbuf.Store.data with Store.I _ -> true | _ -> false
  in
  match (op, is_int) with
  | Varclass.Rsum, true -> V.VI 0
  | Varclass.Rsum, false -> V.VR 0.0
  | Varclass.Rprod, true -> V.VI 1
  | Varclass.Rprod, false -> V.VR 1.0
  | Varclass.Rmax, true -> V.VI min_int
  | Varclass.Rmax, false -> V.VR neg_infinity
  | Varclass.Rmin, true -> V.VI max_int
  | Varclass.Rmin, false -> V.VR infinity

let combine_reduction op a b =
  match (op, a, b) with
  | Varclass.Rsum, V.VI x, V.VI y -> V.VI (x + y)
  | Varclass.Rsum, _, _ -> V.VR (V.to_float a +. V.to_float b)
  | Varclass.Rprod, V.VI x, V.VI y -> V.VI (x * y)
  | Varclass.Rprod, _, _ -> V.VR (V.to_float a *. V.to_float b)
  | Varclass.Rmax, V.VI x, V.VI y -> V.VI (max x y)
  | Varclass.Rmax, _, _ -> V.VR (Float.max (V.to_float a) (V.to_float b))
  | Varclass.Rmin, V.VI x, V.VI y -> V.VI (min x y)
  | Varclass.Rmin, _, _ -> V.VR (Float.min (V.to_float a) (V.to_float b))

(* Real parallel execution of a PARALLEL DO on the domain pool. *)
let run_parallel pool (c : ctx) ui frame (l : Eval.loop) : Eval.signal =
  let trip = l.Eval.l_trip in
  if trip = 0 then Eval.seq_loop c ui frame l
  else
  let g = c.Eval.side.g in
  let plan = plan_of c ui frame l in
  (* auxiliary inductions: capture the entry value now; workers get the
     closed form per iteration and the join writes back the final value *)
  let ind_info =
    List.filter_map
      (fun (v, stride) ->
        match Hashtbl.find_opt frame v with
        | Some (Store.Scalar cell) -> Some (v, cell, Store.get_cell cell, stride)
        | _ -> None)
      plan.Plan.p_inductions
  in
  let nw = Pool.size pool in
  let wstates = Array.make nw None in
  let bad = ref None in
  let loop_label = Printf.sprintf "s%d" l.Eval.l_stmt.Ast.sid in
  (* Lazily built per-worker context: a copied frame in which the
     induction variable, planned private scalars (seeded with the
     current value), reduction scalars (seeded with the operator
     identity) and privatizable arrays (copied) point at fresh
     storage.  Everything else aliases the shared buffers. *)
  let get_ws w =
    match wstates.(w) with
    | Some ws -> ws
    | None ->
      Telemetry.span g.sink "exec.copy-in"
        ~args:[ ("loop", loop_label); ("worker", string_of_int w) ]
      @@ fun () ->
      let wframe = Hashtbl.copy frame in
      let wt =
        {
          c with
          Eval.side = { g; mon_iter = -1; mon_loop = -1 };
          out_rev = [];
          in_parallel = true;
          ops = Eval.fresh_ops ();
        }
      in
      let fresh_cell (cell : Store.cell) =
        { Store.cbuf = Store.alloc_like cell.Store.cbuf 1; coff = 0 }
      in
      let ivc = fresh_cell l.Eval.l_iv in
      Hashtbl.replace wframe l.Eval.l_header.Ast.dvar (Store.Scalar ivc);
      let priv_cells =
        List.filter_map
          (fun v ->
            match Hashtbl.find_opt frame v with
            | Some (Store.Scalar cell) ->
              let nc = fresh_cell cell in
              Store.set_cell nc (Store.get_cell cell);
              Hashtbl.replace wframe v (Store.Scalar nc);
              Some (cell, nc)
            | _ -> None)
          plan.Plan.p_privates
      in
      let ind_cells =
        List.map
          (fun (v, cell, k0, stride) ->
            let nc = fresh_cell cell in
            Store.set_cell nc k0;
            Hashtbl.replace wframe v (Store.Scalar nc);
            (nc, k0, stride))
          ind_info
      in
      let red_cells =
        List.filter_map
          (fun (v, op) ->
            match Hashtbl.find_opt frame v with
            | Some (Store.Scalar cell) ->
              let nc = fresh_cell cell in
              Store.set_cell nc (reduction_identity op nc);
              Hashtbl.replace wframe v (Store.Scalar nc);
              Some (v, (op, cell, nc))
            | _ -> None)
          plan.Plan.p_reductions
      in
      let arr_copies =
        List.filter_map
          (fun v ->
            match Hashtbl.find_opt frame v with
            | Some (Store.Arr a) ->
              let nb = Store.alloc_like a.Store.abuf (Store.length a.Store.abuf) in
              Store.copy_into nb a.Store.abuf;
              Hashtbl.replace wframe v (Store.Arr { a with Store.abuf = nb });
              Some (a, nb)
            | _ -> None)
          plan.Plan.p_arrays
      in
      let ws =
        { wframe; wt; ivc; priv_cells; ind_cells; red_cells; arr_copies;
          last_iter = -1; outs = [] }
      in
      wstates.(w) <- Some ws;
      ws
  in
  let body_fn ~worker k =
    let ws = get_ws worker in
    ws.last_iter <- k;
    List.iter
      (fun (nc, k0, stride) -> Store.set_cell nc (induction_value k0 stride k))
      ws.ind_cells;
    ws.wt.Eval.out_rev <- [];
    let sg = Eval.iteration ws.wt ui ws.wframe l ws.ivc k in
    if ws.wt.Eval.out_rev <> [] then
      ws.outs <- (k, List.rev ws.wt.Eval.out_rev) :: ws.outs;
    match sg with
    | Eval.Snormal -> ()
    | other ->
      Mutex.lock g.bad_mutex;
      if !bad = None then bad := Some other;
      Mutex.unlock g.bad_mutex;
      raise Abort_loop
  in
  (* the loop span covers fork through join (scheduling, per-worker
     copy-in, the body, and the sequential merge below), so perfdebug
     can compare whole-loop time against summed worker busy time *)
  Telemetry.span g.sink "exec.parallel-loop"
    ~args:[ ("loop", loop_label); ("trip", string_of_int trip) ]
  @@ fun () ->
  (try
     Pool.parallel_for pool ~label:loop_label ~schedule:g.schedule ~trip
       ~body:body_fn
   with Abort_loop -> ());
  Telemetry.span g.sink "exec.join" ~args:[ ("loop", loop_label) ]
  @@ fun () ->
  (* merge worker-buffered PRINT output in iteration order *)
  let outs =
    Array.fold_left
      (fun acc -> function None -> acc | Some ws -> ws.outs @ acc)
      [] wstates
  in
  List.sort (fun (a, _) (b, _) -> compare (a : int) b) outs
  |> List.iter (fun (_, lines) ->
         List.iter (fun line -> c.Eval.out_rev <- line :: c.Eval.out_rev) lines);
  Array.iter
    (function None -> () | Some ws -> Eval.add_ops c.Eval.ops ws.wt.Eval.ops)
    wstates;
  (* last-value write-back: private scalars and privatized arrays take
     their values from the worker that ran the sequentially last
     iteration (both schedules hand each worker increasing indices) *)
  let last_ws =
    Array.fold_left
      (fun acc ws ->
        match (acc, ws) with
        | None, _ -> ws
        | Some _, None -> acc
        | Some a, Some b -> if b.last_iter > a.last_iter then ws else acc)
      None wstates
  in
  (match last_ws with
  | Some ws ->
    List.iter
      (fun (orig, mine) -> Store.set_cell orig (Store.get_cell mine))
      ws.priv_cells;
    List.iter
      (fun ((a : Store.arr), mine) -> Store.copy_into a.Store.abuf mine)
      ws.arr_copies
  | None -> ());
  (* reductions: combine per-worker partials into the original cell,
     deterministically in worker order *)
  List.iter
    (fun (v, op) ->
      match Hashtbl.find_opt frame v with
      | Some (Store.Scalar orig) ->
        let acc = ref (Store.get_cell orig) in
        Array.iter
          (function
            | None -> ()
            | Some ws -> (
              match List.assoc_opt v ws.red_cells with
              | Some (_, _, mine) ->
                acc := combine_reduction op !acc (Store.get_cell mine)
              | None -> ()))
          wstates;
        Store.set_cell orig !acc
      | _ -> ())
    plan.Plan.p_reductions;
  (* auxiliary inductions land on their sequential final value *)
  List.iter
    (fun (_, cell, k0, stride) ->
      Store.set_cell cell (induction_value k0 stride trip))
    ind_info;
  Store.set_cell l.Eval.l_iv (l.Eval.l_value_at trip);
  match !bad with Some other -> other | None -> Eval.Snormal

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

type outcome = {
  output : string list;
  wall_s : float;
  stmts_executed : int;
  final_store : (string * float list) list;
  conflicts : conflict list;
  ops : Perf.Machine.op_counts;
}

let conflict_list (g : global) =
  Hashtbl.fold (fun _ c acc -> c :: acc) g.conflicts []
  |> List.sort (fun a b ->
         compare
           (a.c_loop, a.c_var, a.c_kind)
           (b.c_loop, b.c_var, b.c_kind))

let run ?(domains = 4) ?(schedule = Pool.Chunk) ?(validate = false)
    ?predict ?(max_steps = 50_000_000) ?telemetry (prog : Ast.program) :
    outcome =
  let sink =
    match telemetry with Some s -> s | None -> Telemetry.default ()
  in
  let units, main, commons = Eval.load prog in
  let plans = Plan.build prog in
  let pool =
    if validate then None else Some (Pool.create ~telemetry:sink domains)
  in
  Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown pool) @@ fun () ->
  let g =
    {
      plans;
      schedule;
      predict;
      sink;
      epoch = 0;
      conflicts = Hashtbl.create 8;
      bad_mutex = Mutex.create ();
    }
  in
  let hooks =
    match pool with
    | None -> { Eval.sequential with note; par_do = run_validated }
    | Some pool -> { Eval.sequential with par_do = run_parallel pool }
  in
  let c =
    Eval.context ~units ~commons ~max_steps hooks
      { g; mon_iter = -1; mon_loop = -1 }
  in
  let frame = Eval.build_frame c main [] in
  (* monotonic wall clock: NTP slew must not skew speedup tables *)
  let t0 = Telemetry.now_ns () in
  Telemetry.span sink "exec.run" (fun () -> Eval.exec_main c main frame);
  let wall = Int64.to_float (Int64.sub (Telemetry.now_ns ()) t0) /. 1e9 in
  {
    output = List.rev c.Eval.out_rev;
    wall_s = wall;
    stmts_executed = Atomic.get c.Eval.steps;
    final_store = Eval.snapshot c frame;
    conflicts = conflict_list g;
    ops = Eval.op_counts c.Eval.ops;
  }

let set_parallel flag (prog : Ast.program) : Ast.program =
  let rewrite (u : Ast.program_unit) =
    {
      u with
      Ast.body =
        Ast.map_stmts
          (fun (s : Ast.stmt) ->
            match s.Ast.node with
            | Ast.Do (h, body) ->
              { s with Ast.node = Ast.Do ({ h with Ast.parallel = flag }, body) }
            | _ -> s)
          u.Ast.body;
    }
  in
  { Ast.punits = List.map rewrite prog.Ast.punits }

let force_parallel = set_parallel true
let strip_parallel = set_parallel false
