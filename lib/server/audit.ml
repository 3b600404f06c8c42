type safety = Safe | Guarded | Unsafe

type component = { comp : string; safety : safety; notes : string }

let components =
  [
    {
      comp = "Ast.sid_counter";
      safety = Guarded;
      notes =
        "global statement-id source; Atomic fetch-and-add, and \
         renumber_program keeps ids canonical per program";
    };
    {
      comp = "Telemetry sink";
      safety = Safe;
      notes =
        "counters/histograms are atomic; span logs are per-domain \
         (Domain.DLS), so concurrent emission never tears";
    };
    {
      comp = "Interproc.Unit_digest memo";
      safety = Guarded;
      notes =
        "weak table of per-unit content digests, keyed by physical \
         identity; every probe and insert holds its mutex";
    };
    {
      comp = "Server.Cache keyed table";
      safety = Guarded;
      notes = "every lookup/insert/eviction holds the cache mutex";
    };
    {
      comp = "Ddg bucket memo (Cache.ddg_cache)";
      safety = Guarded;
      notes =
        "bucket table mutex-guarded, run counters atomic; probed and \
         filled concurrently by parallel bucket tests and by sessions \
         on different domains";
    };
    {
      comp = "Depenv.t scalar environments";
      safety = Safe;
      notes =
        "all passes (CFG, reaching, constants, liveness, loop nest, \
         interproc summaries) are built eagerly by Depenv.make and \
         read-only afterwards — no lazy fill-in for workers to race";
    };
    {
      comp = "Ddg.plan staged context";
      safety = Safe;
      notes =
        "immutable plan record; test stages only read it, and the \
         pool's job handoff publishes it to worker domains";
    };
    {
      comp = "Session / Engine local tables";
      safety = Safe;
      notes = "confined: one session lives on one domain by design";
    };
    {
      comp = "Runtime.Pool";
      safety = Guarded;
      notes =
        "mutex/condition job handoff; atomic self-scheduling; map \
         results published by the job-completion handshake";
    };
  ]

(* The verdicts are computed, not asserted: change a row's safety and
   they flip on their own. *)
let sharing_across_domains =
  List.for_all (fun c -> c.safety <> Unsafe) components

(* The state the staged analyzer touches from worker domains — the
   inventory behind [Ddg.compute ?runner]. *)
let parallel_analysis_path =
  [ "Telemetry sink"; "Ddg bucket memo (Cache.ddg_cache)";
    "Depenv.t scalar environments"; "Ddg.plan staged context";
    "Runtime.Pool" ]

let parallel_analysis =
  List.for_all
    (fun c ->
      (not (List.mem c.comp parallel_analysis_path)) || c.safety <> Unsafe)
    components

let refuse_parallel_analysis ~what =
  Printf.sprintf
    "%s requires --analysis-domains 1: the domain-safety audit (ped batch \
     --audit) lists unsafe state on the parallel-analysis path"
    what

let safety_to_string = function
  | Safe -> "safe"
  | Guarded -> "guarded"
  | Unsafe -> "unsafe"

let report () =
  let rows =
    List.map
      (fun c ->
        Printf.sprintf "  %-38s %-8s %s" c.comp (safety_to_string c.safety)
          c.notes)
      components
  in
  String.concat "\n"
    ([ "domain-safety audit of shared state:" ] @ rows
    @ [
        (if sharing_across_domains then
           "verdict: one shared cache may serve all domains — multi-domain \
            batch shares the full cache across workers"
         else
           "verdict: cross-domain cache sharing disabled — multi-domain \
            batch partitions jobs, one private cache per domain; the fully \
            shared cache needs a single domain (interleaved mode)");
        (if parallel_analysis then
           "verdict: parallel analysis enabled — --analysis-domains N may \
            fan one session's dependence-test buckets across a domain pool"
         else
           "verdict: parallel analysis disabled — --analysis-domains must \
            stay 1 until the unsafe rows above are fixed");
      ])
