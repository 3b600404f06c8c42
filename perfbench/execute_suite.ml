(* execute-suite: the 17 kernels, auto-parallelized in set-up by the
   pipeline `ped --execute` uses, with their plugins built under the
   run's temp dir.  A closed loop round-robins the kernels in a seeded
   order; each kernel visit runs the four kinds of op — the simulator,
   the multicore runtime on 2 domains, the compiled plugin on a
   2-domain pool, and a plugin rebuild — each checked against the
   sequential simulator. *)

open Fortran_front
module Session = Ped.Session

(* 2 domains, never more than the host has cores. *)
let domains = max 1 (min 2 (Domain.recommended_domain_count ()))

type kernel = {
  k_name : string;
  k_par : Ast.program;  (** auto-parallelized *)
  k_base : Sim.Interp.outcome;  (** sequential simulator baseline *)
  k_built : Codegen.Compile.built;
}

(* Auto-parallelize every unit, after the kernel's assertion script. *)
let parallelized (w : Workloads.t) =
  let sess = Session.load (Workloads.program w) ~unit_name:(Workloads.main_unit w) in
  List.iter (fun cmd -> ignore (Ped.Command.run sess cmd)) w.Workloads.assertion_script;
  List.iter
    (fun (u : Ast.program_unit) ->
      match Session.focus sess u.Ast.uname with
      | Error _ -> ()
      | Ok () ->
        List.iter
          (fun (l : Dependence.Loopnest.loop) ->
            let sid = l.Dependence.Loopnest.lstmt.Ast.sid in
            if Session.is_parallelizable sess sid then
              ignore
                (Session.transform sess "parallelize" (Transform.Catalog.On_loop sid)))
          (Session.loops sess))
    (Session.program sess).Ast.punits;
  Session.program sess

let build ~tmp prog =
  match Codegen.Compile.build ?telemetry:!Meas.trace_sink ~dir:tmp prog with
  | Ok b -> Ok b
  | Error e -> Error (Codegen.Compile.error_to_string e)

let setup ~tmp =
  List.map
    (fun (w : Workloads.t) ->
      let par = parallelized w in
      let base = Sim.Interp.run ~honor_parallel:false par in
      match build ~tmp par with
      | Ok b -> { k_name = w.Workloads.name; k_par = par; k_base = base; k_built = b }
      | Error e -> failwith (Printf.sprintf "%s: plugin build failed: %s" w.Workloads.name e))
    Workloads.all

let stores_exact a b =
  List.length a = List.length b
  && List.for_all2
       (fun (n1, v1) (n2, v2) ->
         String.equal n1 n2
         && List.length v1 = List.length v2
         && List.for_all2 (fun (x : float) y -> x = y || (Float.is_nan x && Float.is_nan y)) v1 v2)
       a b

(* The tolerance `ped --execute` judges parallel runs by: printed
   values carry 6 significant digits, so a reduction reassociated
   across domains may flip the last printed digit; stores compare at
   the ABI default. *)
let matches (k : kernel) out store =
  Sim.Abi.outputs_match ~tol:1e-4 out k.k_base.Sim.Interp.output
  && Sim.Abi.stores_match store k.k_base.Sim.Interp.final_store

let heap_after_rounds = 2

let kinds = [ "sim"; "exec"; "compiled"; "compile" ]

let run ~seed ~seconds ~setups ~tmp =
  let telemetry = !Meas.trace_sink in
  let timed_setups = List.init setups (fun _ -> Meas.timed (fun () -> setup ~tmp)) in
  let kernels, _ = List.nth timed_setups (setups - 1) in
  let setup_s = Meas.median (List.map snd timed_setups) in
  let kernels = Array.of_list kernels in
  (* a seeded visiting order, fixed for the run *)
  let rng = Random.State.make [| seed; 0xE4EC |] in
  let order = Array.init (Array.length kernels) Fun.id in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let pool = Runtime.Pool.create ?telemetry domains in
  let ops = Meas.series () in
  let attempted = ref 0 and failed = ref 0 in
  let sim_stmts = ref 0 and exec_stmts = ref 0 and rounds = ref 0 in
  let lower_emit = ref [] and src_bytes = ref 0 and ir_stmts = ref 0 in
  let failure k kind msg =
    incr failed;
    Meas.fail (Printf.sprintf "execute: %s %s: %s" kind k.k_name msg)
  in
  (* One op: kernel [k], kind [kind]; the result is checked untimed. *)
  let op (k : kernel) kind =
    incr attempted;
    let record dt = Meas.add ops (kind ^ "/" ^ k.k_name) (dt *. 1000.) in
    match kind with
    | "sim" -> (
      match
        Meas.timed (fun () ->
            Meas.layer "sim.run" (fun () -> Sim.Interp.run k.k_par))
      with
      | o, dt ->
        if matches k o.Sim.Interp.output o.Sim.Interp.final_store then begin
          record dt;
          if !rounds = 0 then sim_stmts := !sim_stmts + o.Sim.Interp.stmts_executed
        end
        else failure k kind "differs from the sequential simulator"
      | exception Sim.Interp.Runtime_error m -> failure k kind m)
    | "exec" -> (
      match
        Meas.timed (fun () -> Runtime.Exec.run ~domains ?telemetry k.k_par)
      with
      | o, dt ->
        if matches k o.Runtime.Exec.output o.Runtime.Exec.final_store then begin
          record dt;
          if !rounds = 0 then
            exec_stmts := !exec_stmts + o.Runtime.Exec.stmts_executed
        end
        else failure k kind "differs from the sequential simulator"
      | exception Runtime.Exec.Runtime_error m -> failure k kind m)
    | "compiled" -> (
      match
        Meas.timed (fun () ->
            Codegen.Compile.run ?telemetry k.k_built ~pool:(Some pool)
              ~schedule:Runtime.Pool.Chunk)
      with
      | Ok r, dt ->
        if matches k r.Codegen.Compile.out_lines r.Codegen.Compile.store then
          record dt
        else failure k kind "differs from the sequential simulator"
      | Error e, _ -> failure k kind (Codegen.Compile.error_to_string e))
    | _ -> (
      match Meas.timed (fun () -> build ~tmp k.k_par) with
      | Error e, _ -> failure k kind e
      | Ok b, dt -> (
        (* the rebuilt plugin, run sequentially, must reproduce the
           simulator bit for bit *)
        match Codegen.Compile.run b ~pool:None ~schedule:Runtime.Pool.Chunk with
        | Ok r
          when r.Codegen.Compile.out_lines = k.k_base.Sim.Interp.output
               && stores_exact r.Codegen.Compile.store k.k_base.Sim.Interp.final_store
          ->
          record dt;
          if Meas.tracing () && !rounds = 0 then begin
            (match Meas.timed (fun () -> Meas.layer "codegen.generate" (fun () ->
                                             Codegen.Compile.generate k.k_par)) with
            | Ok src, t ->
              lower_emit := (t *. 1000.) :: !lower_emit;
              src_bytes := !src_bytes + String.length src
            | Error e, _ -> failure k "generate" (Codegen.Compile.error_to_string e));
            ir_stmts := !ir_stmts + b.Codegen.Compile.ir_stmts
          end
        | Ok _ -> failure k kind "sequential compiled run not bit-identical"
        | Error e -> failure k kind (Codegen.Compile.error_to_string e)))
  in
  let heap = ref nan in
  let loop budget =
    let t0 = Meas.now_s () in
    let n0 = !attempted and r0 = !rounds in
    (* whole rounds: every kernel and kind the same number of times *)
    while !rounds = r0 || Meas.now_s () -. t0 < budget do
      Array.iter (fun i -> List.iter (op kernels.(i)) kinds) order;
      incr rounds;
      (* the high-water mark after a fixed amount of work, so it does
         not grow with speed *)
      if !rounds = heap_after_rounds then heap := Meas.heap_mb ()
    done;
    (!attempted - n0, Meas.now_s () -. t0)
  in
  let overhead = ref nan in
  let n_ops, wall =
    match telemetry with
    | None -> loop seconds
    | Some sink ->
      (* traced half first, so the exact counts of the first round
         come from a traced round; then the untraced half *)
      Telemetry.set_recording sink true;
      let r = loop (seconds /. 2.) in
      Telemetry.set_recording sink false;
      let traced_gm = Meas.class_geomean ops in
      Hashtbl.reset ops;
      ignore (loop (seconds /. 2.));
      overhead := traced_gm /. Meas.class_geomean ops;
      r
  in
  Runtime.Pool.shutdown pool;
  let heap = if Float.is_nan !heap then Meas.heap_mb () else !heap in
  (* per kind: geomean over kernels of each kernel's median *)
  let kind_gm kind =
    Meas.geomean
      (Array.to_list kernels
      |> List.map (fun k -> Meas.median (Meas.samples ops (kind ^ "/" ^ k.k_name))))
  in
  let compile_all =
    List.concat_map
      (fun k -> Meas.samples ops ("compile/" ^ k.k_name))
      (Array.to_list kernels)
  in
  let e2e =
    [
      ("setup_s", setup_s, "s");
      ("op_ms.geomean", Meas.class_geomean ops, "ms");
      ("ops_per_s", float_of_int n_ops /. wall, "1/s");
      ("first_result_ms.p50", Meas.median compile_all, "ms");
      ("peak_heap_mb", heap, "MB");
    ]
  in
  let figures =
    [
      ("setup_s", setup_s, "s");
      ("exec_ms.geomean", kind_gm "exec", "ms");
      ("sim_ms.geomean", kind_gm "sim", "ms");
      ("compiled_ms.geomean", kind_gm "compiled", "ms");
      ("compile_ms.p50", Meas.median compile_all, "ms");
      ("peak_heap_mb", heap, "MB");
    ]
  in
  let layer_metrics =
    match telemetry with
    | None -> []
    | Some sink ->
      let nodes = Meas.nodes (Telemetry.spans sink) in
      let execs = float_of_int (max 1 (Meas.span_count nodes "exec.run")) in
      let per name = Meas.span_total_ms nodes name /. execs in
      (* worker busy time inside the runtime's parallel loops *)
      let loops =
        List.filter_map
          (fun (n : Meas.node) ->
            if n.Meas.n_rec.Telemetry.sp_name = "exec.parallel-loop" then
              Some (n.n_rec.sp_t0, n.n_rec.sp_t1)
            else None)
          nodes
      in
      let inside t =
        List.exists (fun (a, b) -> Int64.compare a t <= 0 && Int64.compare t b <= 0) loops
      in
      let busy =
        List.fold_left
          (fun acc (n : Meas.node) ->
            let r = n.Meas.n_rec in
            if (r.Telemetry.sp_name = "pool.chunk" || r.sp_name = "pool.self")
               && inside r.sp_t0
            then acc +. (Int64.to_float (Meas.dur r) /. 1e6)
            else acc)
          0.0 nodes
      in
      let loop_ms = Meas.span_total_ms nodes "exec.parallel-loop" in
      let mean_span name =
        Meas.span_total_ms nodes name
        /. float_of_int (max 1 (Meas.span_count nodes name))
      in
      [
        ("fortran.parse_ms",
         Meas.median
           (List.map
              (fun (w : Workloads.t) ->
                snd (Meas.timed (fun () ->
                         Parser.parse_program ~file:w.Workloads.name w.Workloads.source))
                *. 1000.)
              Workloads.all));
        ("runtime.parallel_loop_ms", per "exec.parallel-loop");
        ("runtime.copy_in_ms", per "exec.copy-in");
        ("runtime.join_ms", per "exec.join");
        ("runtime.busy_ratio", busy /. (float_of_int domains *. Float.max 1e-9 loop_ms));
        ("runtime.stmts_executed", float_of_int !exec_stmts);
        ("sim.stmts_executed", float_of_int !sim_stmts);
        ("codegen.lower_emit_ms", Meas.mean !lower_emit);
        ("codegen.ocamlopt_ms", mean_span "codegen.compile");
        ("codegen.source_bytes", float_of_int !src_bytes);
        ("codegen.ir_stmts", float_of_int !ir_stmts);
        ("codegen.run_ms", mean_span "codegen.run");
        ("trace_overhead_ratio", !overhead);
      ]
  in
  let detail =
    Printf.sprintf "execute: %d kernels x %d kinds, %d rounds, %d ops in %.3f s, %d domains"
      (Array.length kernels) (List.length kinds) !rounds n_ops wall domains
    :: List.map
         (fun kind ->
           let xs = List.concat_map (fun k -> Meas.samples ops (kind ^ "/" ^ k.k_name))
                      (Array.to_list kernels) in
           Printf.sprintf "kind %s: geomean of kernel medians %.4f ms, n=%d" kind
             (kind_gm kind) (List.length xs))
         kinds
  in
  ( { Meas.attempted = !attempted; failed = !failed; metrics = e2e; detail },
    figures,
    layer_metrics )
