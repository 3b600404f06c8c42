(* The repository benchmark: one seeded workload per invocation,
   timed with tracing off (--trace 0: the end-to-end metrics) or with
   a recording telemetry sink (--trace 1: the per-layer metrics).
   Detail lines go first; the last line of standard output is the
   result object:

     {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

   Run it through run.py, which builds it first:

     python3 perfbench/run.py --workload flagship-edit --seed 1 \
       --seconds 20 --trace 0 *)

(* Every per-layer metric, in the order BENCHMARK.json lists them.  A
   workload reports the ones its layers serve and 0 for layers that do
   no work on it. *)
let per_layer =
  [
    ("fortran.parse_ms", "ms");
    ("interproc.summary_ms", "ms");
    ("dependence.env_ms", "ms");
    ("ddg.plan_ms", "ms");
    ("ddg.test_ms", "ms");
    ("ddg.assemble_ms", "ms");
    ("ddg.tasks", "count");
    ("engine.summary_ms", "ms");
    ("engine.env_ms", "ms");
    ("engine.ddg_ms", "ms");
    ("engine.other_ms", "ms");
    ("engine.tests_run", "count");
    ("engine.env_misses", "count");
    ("engine.summary_builds", "count");
    ("engine.bucket_hit_ratio", "ratio");
    ("core.pane_ms", "ms");
    ("core.focus_ms", "ms");
    ("transform.explain_ms", "ms");
    ("transform.apply_ms", "ms");
    ("server.cache.hit_ratio", "ratio");
    ("server.cache.evictions", "count");
    ("server.cache.bytes", "bytes");
    ("server.handle_ms.open", "ms");
    ("server.handle_ms.cmd", "ms");
    ("server.handle_ms.close", "ms");
    ("runtime.parallel_loop_ms", "ms");
    ("runtime.copy_in_ms", "ms");
    ("runtime.join_ms", "ms");
    ("runtime.busy_ratio", "ratio");
    ("runtime.stmts_executed", "count");
    ("sim.stmts_executed", "count");
    ("codegen.lower_emit_ms", "ms");
    ("codegen.ocamlopt_ms", "ms");
    ("codegen.source_bytes", "bytes");
    ("codegen.ir_stmts", "count");
    ("codegen.run_ms", "ms");
    ("trace_overhead_ratio", "ratio");
  ]

let workloads = [ "flagship-edit"; "serve-mix"; "execute-suite" ]

let usage () =
  prerr_endline
    "usage: perfbench --workload (flagship-edit|serve-mix|execute-suite) \
     --seed N --seconds S --trace 0|1 [--tmp DIR] [--out DIR] [--rev REV]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0
  and trace = ref (-1) and tmp = ref "" and out = ref "" and rev = ref "" in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | "--tmp" :: v :: r -> tmp := v; parse r
    | "--out" :: v :: r -> out := v; parse r
    | "--rev" :: v :: r -> rev := v; parse r
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if
    (not (List.mem !workload workloads))
    || !seed < 0 || !seconds <= 0.0
    || (!trace <> 0 && !trace <> 1)
  then usage ();
  let tmp = if !tmp = "" then Filename.concat "_build" "perfbench-tmp" else !tmp in
  if not (Sys.file_exists tmp) then Sys.mkdir tmp 0o755;
  let sink =
    if !trace = 1 then begin
      let s = Telemetry.make ~record_spans:false () in
      Meas.trace_sink := Some s;
      (* deep library code emits to the process default sink *)
      Telemetry.set_default s;
      Some s
    end
    else None
  in
  let seed = !seed and seconds = !seconds in
  let result, figures, layer_metrics =
    match !workload with
    | "flagship-edit" -> Flagship.run ~seed ~seconds ~setups:3
    | "serve-mix" -> Serve_mix.run ~seed ~seconds ~setups:7 ~tmp
    | _ -> Execute_suite.run ~seed ~seconds ~setups:3 ~tmp
  in
  let failed = result.Meas.failed + !Meas.oracle_failed in
  Printf.printf "host: nproc %d, ocaml %s, rev %s\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (if !rev = "" then "unknown" else !rev);
  Printf.printf "workload %s, seed %d, seconds %g, trace %d\n" !workload seed
    seconds !trace;
  List.iter print_endline result.Meas.detail;
  List.iter
    (fun (name, v, unit) -> Printf.printf "metric %s = %.6g %s\n" name v unit)
    figures;
  Printf.printf "ops: attempted %d, failed %d\n" result.Meas.attempted failed;
  List.iter (fun m -> print_endline ("FAILED: " ^ m)) (List.rev !Meas.failures);
  let metrics =
    match sink with
    | None -> result.Meas.metrics
    | Some s ->
      let nodes = Meas.nodes (Telemetry.spans s) in
      let rows = Meas.self_table nodes in
      List.iter print_endline
        (Meas.table_lines "self time by span (traced phase)" rows);
      if !out <> "" then
        Meas.write_trace
          ~file:
            (Filename.concat !out
               (Printf.sprintf "trace-%s.json" !workload))
          ~workload:!workload ~seed nodes rows;
      List.map
        (fun (name, unit) ->
          (name, Option.value ~default:0.0 (List.assoc_opt name layer_metrics), unit))
        per_layer
  in
  List.iter
    (fun (name, v, unit) ->
      Printf.printf "%s %s = %.6g %s\n"
        (if sink = None then "e2e" else "layer")
        name v unit)
    metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) result.Meas.attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Meas.json_string name)
              (Meas.json_float v) (Meas.json_string unit))
          metrics))
