(* The multicore runtime: domain pool, parallel execution vs the
   sequential simulator, the shadow-memory dependence validator, and
   machine-model calibration. *)

open Fortran_front
open Util

(* Auto-parallelize every unit of a workload (assertion script first)
   — the same pipeline ped --execute uses. *)
let parallelized (w : Workloads.t) =
  let sess =
    Ped.Session.load (Workloads.program w) ~unit_name:(Workloads.main_unit w)
  in
  List.iter
    (fun cmd -> ignore (Ped.Command.run sess cmd))
    w.Workloads.assertion_script;
  List.iter
    (fun (u : Ast.program_unit) ->
      match Ped.Session.focus sess u.Ast.uname with
      | Ok () ->
        List.iter
          (fun (l : Dependence.Loopnest.loop) ->
            if Ped.Session.is_parallelizable sess (loop_sid l) then
              ignore
                (Ped.Session.transform sess "parallelize"
                   (Transform.Catalog.On_loop (loop_sid l))))
          (Ped.Session.loops sess)
      | Error _ -> ())
    (Ped.Session.program sess).Ast.punits;
  (Ped.Session.program sess)

let seq_reference program = Sim.Interp.run ~honor_parallel:false program

let check_matches ?(exact = false) label program ~domains ~schedule =
  let seq = seq_reference program in
  let o = Runtime.Exec.run ~domains ~schedule program in
  if exact then begin
    check_bool (label ^ ": output identical") true
      (o.Runtime.Exec.output = seq.Sim.Interp.output);
    check_bool (label ^ ": store identical") true
      (o.Runtime.Exec.final_store = seq.Sim.Interp.final_store)
  end
  else begin
    (* printed values carry 6 significant digits; reduction
       reassociation across domains can flip the last digit *)
    check_bool (label ^ ": output matches") true
      (Sim.Interp.outputs_match ~tol:1e-4 o.Runtime.Exec.output
         seq.Sim.Interp.output);
    check_bool (label ^ ": store matches") true
      (Sim.Interp.stores_match o.Runtime.Exec.final_store
         seq.Sim.Interp.final_store)
  end

(* An elementwise kernel with no reductions: every float operation
   happens at the same iteration with the same operands regardless of
   scheduling, so even multi-domain runs must be bit-identical. *)
let elementwise_src =
  {|
      PROGRAM BITS
      INTEGER N
      PARAMETER (N = 40)
      REAL A(N), B(N)
      INTEGER I
      DO I = 1, N
        A(I) = FLOAT(I) * 0.3
        B(I) = FLOAT(N - I) * 0.7
      ENDDO
      DO I = 1, N
        A(I) = A(I) * 1.1 + B(I) * 0.9 + SQRT(FLOAT(I))
      ENDDO
      PRINT *, A(1), A(7), A(N)
      END
|}

let suite =
  [
    case "pool: chunk schedule runs every iteration exactly once" (fun () ->
        Runtime.Pool.with_pool 3 (fun pool ->
            let hits = Array.init 100 (fun _ -> Atomic.make 0) in
            (* checks run on the main domain: Alcotest's output is not
               domain-safe, so workers only record what they saw *)
            let out_of_range = Atomic.make 0 in
            Runtime.Pool.parallel_for pool ~schedule:Runtime.Pool.Chunk ~trip:100
              ~body:(fun ~worker k ->
                if not (worker >= 0 && worker < 3) then Atomic.incr out_of_range;
                Atomic.incr hits.(k));
            check_bool "worker in range" true (Atomic.get out_of_range = 0);
            Array.iteri
              (fun i h ->
                check_int (Printf.sprintf "iteration %d" i) 1 (Atomic.get h))
              hits));
    case "pool: self schedule runs every iteration exactly once" (fun () ->
        Runtime.Pool.with_pool 4 (fun pool ->
            let hits = Array.init 37 (fun _ -> Atomic.make 0) in
            Runtime.Pool.parallel_for pool ~schedule:Runtime.Pool.Self ~trip:37
              ~body:(fun ~worker:_ k -> Atomic.incr hits.(k));
            Array.iter (fun h -> check_int "once" 1 (Atomic.get h)) hits));
    case "pool: zero-trip loops are a no-op" (fun () ->
        Runtime.Pool.with_pool 2 (fun pool ->
            Runtime.Pool.parallel_for pool ~schedule:Runtime.Pool.Chunk ~trip:0
              ~body:(fun ~worker:_ _ -> Alcotest.fail "must not run")));
    case "pool: worker exception propagates, pool survives" (fun () ->
        Runtime.Pool.with_pool 2 (fun pool ->
            (try
               Runtime.Pool.parallel_for pool ~schedule:Runtime.Pool.Self ~trip:50
                 ~body:(fun ~worker:_ k -> if k = 25 then failwith "boom");
               Alcotest.fail "expected an exception"
             with Failure m -> check_string "message" "boom" m);
            (* the pool is still usable after a failed job *)
            let n = Atomic.make 0 in
            Runtime.Pool.parallel_for pool ~schedule:Runtime.Pool.Chunk ~trip:10
              ~body:(fun ~worker:_ _ -> Atomic.incr n);
            check_int "next job runs" 10 (Atomic.get n)));
    case "pool: map returns per-task results in task order" (fun () ->
        Runtime.Pool.with_pool 3 (fun pool ->
            let tasks = Array.init 23 (fun k () -> k * k) in
            let got = Runtime.Pool.map pool tasks in
            check_int "length" 23 (Array.length got);
            Array.iteri
              (fun k v -> check_int (Printf.sprintf "task %d" k) (k * k) v)
              got;
            check_int "empty" 0 (Array.length (Runtime.Pool.map pool [||]))));
    case "pool: map propagates a task exception, pool survives" (fun () ->
        Runtime.Pool.with_pool 2 (fun pool ->
            (try
               ignore
                 (Runtime.Pool.map pool
                    (Array.init 8 (fun k () ->
                         if k = 5 then failwith "task boom" else k)));
               Alcotest.fail "expected an exception"
             with Failure m -> check_string "message" "task boom" m);
            let got = Runtime.Pool.map pool (Array.init 4 (fun k () -> k)) in
            check_int "next map runs" 4 (Array.length got)));
    case "pool: parallel_for schedules every iteration" (fun () ->
        Runtime.Pool.with_pool 2 (fun pool ->
            let n = Atomic.make 0 in
            Runtime.Pool.parallel_for pool ~schedule:Runtime.Pool.Chunk
              ~trip:10
              ~body:(fun ~worker:_ _ -> Atomic.incr n);
            check_int "all iterations" 10 (Atomic.get n)));
    case "schedule names parse" (fun () ->
        check_bool "chunk" true
          (Runtime.Pool.schedule_of_string "chunk" = Some Runtime.Pool.Chunk);
        check_bool "self" true
          (Runtime.Pool.schedule_of_string "self" = Some Runtime.Pool.Self);
        check_bool "junk" true (Runtime.Pool.schedule_of_string "junk" = None));
    case "every workload matches the simulator on 2 and 4 domains" (fun () ->
        List.iter
          (fun (w : Workloads.t) ->
            let p = parallelized w in
            List.iter
              (fun (domains, schedule) ->
                check_matches
                  (Printf.sprintf "%s @%d/%s" w.Workloads.name domains
                     (Runtime.Pool.schedule_to_string schedule))
                  p ~domains ~schedule)
              [
                (2, Runtime.Pool.Chunk);
                (4, Runtime.Pool.Chunk);
                (4, Runtime.Pool.Self);
              ])
          Workloads.all);
    case "one domain is bit-identical on every workload" (fun () ->
        List.iter
          (fun (w : Workloads.t) ->
            check_matches ~exact:true w.Workloads.name (parallelized w)
              ~domains:1 ~schedule:Runtime.Pool.Chunk)
          Workloads.all);
    case "ill-typed actual: simulator and runtime share storage rules"
      (fun () ->
        (* a REAL array seen through an INTEGER formal: writes convert
           to the storage's type, so both print 1.5 *)
        let program =
          parse
            {|
      PROGRAM PUN
      REAL A(4)
      DO I = 1, 4
        A(I) = 0.5
      ENDDO
      CALL SETI(A, 4)
      PRINT *, A(1), A(2), A(3), A(4)
      END
      SUBROUTINE SETI(B, N)
      INTEGER N
      INTEGER B(N)
      DO I = 1, N
        B(I) = B(I) + 1
      ENDDO
      END
|}
        in
        check_matches ~exact:true "punning" program ~domains:1
          ~schedule:Runtime.Pool.Chunk;
        check_bool "stores 1.5" true
          ((seq_reference program).Sim.Interp.output = [ "1.5 1.5 1.5 1.5" ]));
    case "elementwise kernel is bit-identical even on many domains" (fun () ->
        let program =
          Runtime.Exec.force_parallel
            (Parser.parse_program ~file:"bits.f" elementwise_src)
        in
        List.iter
          (fun (domains, schedule) ->
            check_matches ~exact:true
              (Printf.sprintf "bits @%d" domains)
              program ~domains ~schedule)
          [
            (2, Runtime.Pool.Chunk);
            (4, Runtime.Pool.Chunk);
            (4, Runtime.Pool.Self);
          ]);
    case "validator flags the forced-parallel tridiagonal solver" (fun () ->
        let w = Option.get (Workloads.by_name "tridiag") in
        let program = Runtime.Exec.force_parallel (Workloads.program w) in
        let o = Runtime.Exec.run ~validate:true program in
        let flows =
          List.filter
            (fun (c : Runtime.Exec.conflict) ->
              c.Runtime.Exec.c_kind = Runtime.Exec.Flow)
            o.Runtime.Exec.conflicts
        in
        check_bool "flow conflicts found" true (flows <> []);
        check_bool "back-substitution recurrence on X" true
          (List.exists
             (fun (c : Runtime.Exec.conflict) -> c.Runtime.Exec.c_var = "X")
             flows);
        List.iter
          (fun (c : Runtime.Exec.conflict) ->
            check_bool "distinct iterations" true
              (c.Runtime.Exec.c_iter_a <> c.Runtime.Exec.c_iter_b))
          o.Runtime.Exec.conflicts;
        (* validation changes no semantics: output still sequential *)
        let seq = seq_reference program in
        check_bool "validated run output" true
          (o.Runtime.Exec.output = seq.Sim.Interp.output));
    case "validator flags the forced-parallel linear recurrence" (fun () ->
        let w = Option.get (Workloads.by_name "recur") in
        let program = Runtime.Exec.force_parallel (Workloads.program w) in
        let o = Runtime.Exec.run ~validate:true program in
        check_bool "has flow conflict" true
          (List.exists
             (fun (c : Runtime.Exec.conflict) ->
               c.Runtime.Exec.c_kind = Runtime.Exec.Flow)
             o.Runtime.Exec.conflicts));
    case "validator is silent on every analysis-parallelized workload"
      (fun () ->
        List.iter
          (fun (w : Workloads.t) ->
            let o = Runtime.Exec.run ~validate:true (parallelized w) in
            check_int
              (w.Workloads.name ^ ": no conflicts")
              0
              (List.length o.Runtime.Exec.conflicts))
          Workloads.all);
    case "calibrate recovers synthetic weights" (fun () ->
        (* times generated from known weights over varied count mixes *)
        let w = [| 1.5; 3.0; 12.0; 2.5; 30.0 |] in
        let mk flops mems intrinsics loop_iters calls =
          let c =
            {
              Perf.Machine.flops;
              mems;
              intrinsics;
              loop_iters;
              calls;
            }
          in
          let time =
            (w.(0) *. flops) +. (w.(1) *. mems) +. (w.(2) *. intrinsics)
            +. (w.(3) *. loop_iters) +. (w.(4) *. calls)
          in
          (c, time)
        in
        let samples =
          [
            mk 1000. 300. 10. 100. 5.;
            mk 200. 900. 0. 50. 2.;
            mk 50. 60. 200. 10. 0.;
            mk 800. 100. 30. 400. 40.;
            mk 10. 10. 5. 5. 60.;
            mk 3000. 2500. 120. 700. 11.;
          ]
        in
        let m = Perf.Machine.calibrate samples Perf.Machine.default in
        let close a b = Float.abs (a -. b) /. b < 0.05 in
        check_bool "flop normalized" true (m.Perf.Machine.flop_cost = 1.0);
        check_bool "mem ratio" true
          (close m.Perf.Machine.mem_cost (w.(1) /. w.(0)));
        check_bool "intrinsic ratio" true
          (close m.Perf.Machine.intrinsic_cost (w.(2) /. w.(0)));
        check_bool "loop ratio" true
          (close m.Perf.Machine.loop_overhead (w.(3) /. w.(0)));
        check_bool "call ratio" true
          (close m.Perf.Machine.call_overhead (w.(4) /. w.(0)));
        check_bool "renamed" true
          (contains ~needle:"calibrated" m.Perf.Machine.name));
    case "calibrate on real runs produces positive weights" (fun () ->
        let progs =
          List.filter_map
            (fun n -> Option.map Workloads.program (Workloads.by_name n))
            [ "daxpy"; "sumred" ]
        in
        let m = Runtime.Calibrate.fit ~repeat:1 progs in
        check_bool "flop is the unit" true (m.Perf.Machine.flop_cost = 1.0);
        check_bool "mem positive" true (m.Perf.Machine.mem_cost > 0.0);
        check_bool "loop positive" true (m.Perf.Machine.loop_overhead > 0.0));
    case "runtime op counts are consistent with the program" (fun () ->
        let program = Parser.parse_program ~file:"bits.f" elementwise_src in
        let o = Runtime.Exec.run ~domains:1 program in
        (* two N-trip loops, N = 40 *)
        check_bool "iterations" true
          (o.Runtime.Exec.ops.Perf.Machine.loop_iters = 80.0);
        check_bool "intrinsics counted" true
          (o.Runtime.Exec.ops.Perf.Machine.intrinsics >= 120.0);
        check_bool "flops counted" true
          (o.Runtime.Exec.ops.Perf.Machine.flops > 0.0));
    case "simulator order: reverse exposes an order-dependent loop" (fun () ->
        let src =
          {|
      PROGRAM ORD
      REAL A(10), S
      INTEGER I
      DO I = 1, 10
        A(I) = FLOAT(I)
      ENDDO
      PARALLEL DO I = 1, 10
        S = A(I)
      ENDDO
      PRINT *, S
      END
|}
        in
        let fwd = run_output ~honor_parallel:true src in
        let rev =
          run_output ~honor_parallel:true ~par_order:Sim.Interp.Reverse src
        in
        check_bool "forward keeps the last iteration" true (fwd = [ "10" ]);
        check_bool "reverse keeps the first iteration" true (rev = [ "1" ]));
    case "simulate command accepts an iteration order" (fun () ->
        let w = Option.get (Workloads.by_name "daxpy") in
        let sess =
          Ped.Session.load (Workloads.program w)
            ~unit_name:(Workloads.main_unit w)
        in
        let out = Ped.Command.run sess "simulate 4 reverse" in
        check_bool "order noted" true
          (contains ~needle:"reverse iteration order" out);
        check_bool "order persists in the session" true
          ((Ped.Session.sim_order sess) = Sim.Interp.Reverse);
        let bad = Ped.Command.run sess "simulate 4 sideways" in
        check_bool "bad order rejected" true (contains ~needle:"error" bad));
  ]
