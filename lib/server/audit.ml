type safety = Safe | Guarded

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

let safety_to_string = function
  | Safe -> "safe"
  | Guarded -> "guarded"

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
        "verdict: one shared cache may serve all domains — multi-domain \
         batch shares the full cache across workers";
        "verdict: parallel analysis enabled — --analysis-domains N may fan \
         one session's dependence-test buckets across a domain pool";
      ])
