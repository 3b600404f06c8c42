open Fortran_front

exception Runtime_error = Eval.Runtime_error

type order = Seq | Reverse | Shuffled of int

type access = {
  a_sid : Ast.stmt_id;
  a_var : string;
  a_off : int;
  a_write : bool;
  a_instance : int;
  a_iters : (Ast.stmt_id * int) list;
}

type outcome = {
  output : string list;
  cycles : float;
  stmts_executed : int;
  final_store : (string * float list) list;
  loop_cycles : (Ast.stmt_id * float) list;
}

(* The simulator's side of an evaluation context: the machine model's
   clock and the array-access trace. *)
type sim = {
  machine : Perf.Machine.t;
  par_order : order;
  mutable clock : float;
  loop_cycles : (Ast.stmt_id, float) Hashtbl.t;
  mutable cur_sid : Ast.stmt_id;
  mutable instance : int;  (* statement instances, in execution order *)
  mutable loop_stack : (Ast.stmt_id * int) list;  (* innermost first *)
}

type ctx = sim Eval.ctx

let charge (c : ctx) (ui : Eval.unit_info) exprs extra =
  let m = c.side in
  m.clock <-
    m.clock
    +. List.fold_left
         (fun acc e -> acc +. Perf.Estimator.expr_cost m.machine ui.Eval.tbl e)
         extra exprs

(* Static cost of each statement, charged before it runs; a DO header
   is charged by [loop] so that it counts towards the loop's time. *)
let stmt (c : ctx) ui (s : Ast.stmt) =
  let m = c.side in
  m.cur_sid <- s.Ast.sid;
  m.instance <- m.instance + 1;
  match s.Ast.node with
  | Ast.Assign (lhs, rhs) ->
    charge c ui [ lhs; rhs ] m.machine.Perf.Machine.mem_cost
  | Ast.Print args -> charge c ui args 10.0
  | Ast.If (branches, _) -> charge c ui (List.map fst branches) 0.0
  | Ast.Call (_, args) -> charge c ui args m.machine.Perf.Machine.call_overhead
  | Ast.Continue | Ast.Goto _ | Ast.Return | Ast.Stop | Ast.Do _ -> ()

let loop (c : ctx) ui frame (s : Ast.stmt) (h : Ast.do_header) body =
  let m = c.side in
  let t0 = m.clock in
  charge c ui ([ h.Ast.lo; h.Ast.hi ] @ Option.to_list h.Ast.step) 0.0;
  let r = Eval.exec_do c ui frame s h body in
  let prev = Option.value ~default:0.0 (Hashtbl.find_opt m.loop_cycles s.Ast.sid) in
  Hashtbl.replace m.loop_cycles s.Ast.sid (m.clock -. t0 +. prev);
  r

let iteration (c : ctx) ui frame (l : Eval.loop) k =
  let m = c.side in
  m.clock <- m.clock +. m.machine.Perf.Machine.loop_overhead;
  m.loop_stack <- (l.Eval.l_stmt.Ast.sid, k) :: m.loop_stack;
  let r = Eval.exec_block c ui frame l.Eval.l_body in
  m.loop_stack <- List.tl m.loop_stack;
  r

(* The simulated parallel loop: iterations run one at a time in
   [par_order], each measured on the simulated clock and charged to
   the processor the machine's schedule gives it; the loop costs
   fork/join plus the busiest processor's time. *)
let par_do (c : ctx) ui frame (l : Eval.loop) =
  let m = c.side and trip = l.Eval.l_trip in
  let order = Array.init trip Fun.id in
  (match m.par_order with
  | Seq -> ()
  | Reverse ->
    for i = 0 to (trip / 2) - 1 do
      let t = order.(i) in
      order.(i) <- order.(trip - 1 - i);
      order.(trip - 1 - i) <- t
    done
  | Shuffled seed ->
    let rstate = Random.State.make [| seed |] in
    for i = trip - 1 downto 1 do
      let j = Random.State.int rstate (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done);
  let p = m.machine.Perf.Machine.processors in
  let buckets = Array.make (max p 1) 0.0 in
  let chunk = (trip + p - 1) / max p 1 in
  let start_clock = m.clock in
  c.in_parallel <- true;
  let bad = ref None in
  Array.iter
    (fun k ->
      if !bad = None then begin
        let t0 = m.clock in
        (match Eval.iteration c ui frame l l.Eval.l_iv k with
        | Eval.Snormal -> ()
        | other -> bad := Some other);
        let delta = m.clock -. t0 in
        let proc =
          match m.machine.Perf.Machine.schedule with
          | Perf.Machine.Block ->
            if chunk = 0 then 0 else min (p - 1) (k / max chunk 1)
          | Perf.Machine.Cyclic -> k mod max p 1
        in
        buckets.(proc) <- buckets.(proc) +. delta
      end)
    order;
  c.in_parallel <- false;
  let par_time = Array.fold_left Float.max 0.0 buckets in
  m.clock <- start_clock +. m.machine.Perf.Machine.fork_join +. par_time;
  (* leave the induction variable at its sequential final value so
     results do not depend on the iteration order *)
  Store.set_cell l.Eval.l_iv (l.Eval.l_value_at trip);
  match !bad with Some sig_ -> sig_ | None -> Eval.Snormal

let run ?(machine = Perf.Machine.default) ?(honor_parallel = true)
    ?(par_order = Seq) ?(max_steps = 50_000_000) ?trace (prog : Ast.program) :
    outcome =
  let units, main, commons = Eval.load prog in
  let note =
    match trace with
    | None -> Eval.sequential.Eval.note
    | Some f ->
      fun (c : ctx) ~write ~elem var _ off ->
        if elem then
          f
            {
              a_sid = c.side.cur_sid;
              a_var = var;
              a_off = off;
              a_write = write;
              a_instance = c.side.instance;
              a_iters = List.rev c.side.loop_stack;
            }
  in
  let hooks =
    {
      Eval.stmt;
      call_fn =
        (fun c -> c.side.clock <- c.side.clock +. machine.Perf.Machine.call_overhead);
      note;
      loop;
      iteration;
      par_do = (if honor_parallel then par_do else Eval.seq_loop);
    }
  in
  let c =
    Eval.context ~units ~commons ~max_steps hooks
      {
        machine;
        par_order;
        clock = 0.0;
        loop_cycles = Hashtbl.create 16;
        cur_sid = -1;
        instance = 0;
        loop_stack = [];
      }
  in
  let frame = Eval.build_frame c main [] in
  Eval.exec_main c main frame;
  {
    output = List.rev c.Eval.out_rev;
    cycles = c.side.clock;
    stmts_executed = Atomic.get c.Eval.steps;
    final_store = Eval.snapshot c frame;
    loop_cycles =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.side.loop_cycles []
      |> List.sort compare;
  }

(* Comparison conventions live in {!Abi}, shared with the multicore
   runtime; re-exported here for existing callers. *)

let outputs_match = Abi.outputs_match
let stores_match = Abi.stores_match
