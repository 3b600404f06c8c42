(** The batch driver: stream edit-scripts through concurrent
    sessions.

    A {e job} is one program plus an editor command script.  The
    driver runs every job to completion and reports throughput
    (sessions/sec, edits/sec) and shared-cache effectiveness — the
    numbers [bench multisession] gates on.

    Two execution modes, chosen by [domains]:

    - {e interleaved} (domains <= 1): all sessions open up front
      against one fully shared {!Cache}, then execute one command at
      a time round-robin — deterministic multiplexing on the calling
      domain, the closest model of the interactive server under
      load.
    - {e partitioned} (domains > 1): jobs are split across a
      {!Runtime.Pool} of worker domains, all sharing the one cache
      (the {!Audit} inventory lists why that is safe).

    Orthogonally, [analysis_domains > 1] fans each session's
    dependence-test buckets across an analysis pool
    ([Ddg.compute ?runner]); the driver refuses to combine it with
    [domains > 1] (the analysis pool serves one session at a time).

    With [check], every job's final dependence graph is compared —
    byte-identical marshalled form — against a from-scratch
    ([caching:false], no sharing) replay of the same job: the
    correctness gate that sharing changes nothing. *)

type job = {
  j_id : string;
  j_file : string;             (** display name / parse origin *)
  j_source : string;
  j_unit : string option;      (** focus unit; default: main *)
  j_script : string list;      (** editor command lines *)
}

type job_result = {
  jr_id : string;
  jr_unit : string;            (** "" when the job failed *)
  jr_commands : int;           (** commands executed *)
  jr_edits : int;              (** mutating commands (edit/apply/undo/redo) *)
  jr_ddg_digest : string;      (** hex digest of the final marshalled DDG *)
  jr_scratch_digest : string option;  (** from-scratch digest, when checked *)
  jr_error : string option;
}

type outcome = {
  o_jobs : int;
  o_domains : int;             (** worker domains used (1 = interleaved) *)
  o_commands : int;
  o_edits : int;
  o_elapsed_s : float;
  o_identical : bool option;   (** all DDGs byte-identical to scratch
                                   ([None] when [check] was off) *)
  o_cache : Cache.stats;       (** shared cache, or per-domain caches summed *)
  o_results : job_result list; (** in job order *)
}

val sessions_per_sec : outcome -> float
val edits_per_sec : outcome -> float

(** Parse a job file: one job per line,
    [FILE[#UNIT] :: cmd ; cmd ; ...] — sources are read relative to
    the job file's directory; ['#']-prefixed and blank lines are
    skipped.  [Error] names the offending line. *)
val parse_job_file : string -> (job list, string) result

(** Run the jobs.  [domains] (default 1) selects the mode; it is
    clamped to the number of jobs.  [analysis_domains] (default 1)
    sizes the per-session analysis fan-out.  [cache] seeds the shared
    cache (ignored only in the per-domain-cache fallback).
    [history_limit], [telemetry] are handed to every session.
    [Error] on an empty job list or on a refused domain
    configuration; per-job failures are reported in [jr_error]. *)
val run :
  ?telemetry:Telemetry.sink ->
  ?cache:Cache.t ->
  ?domains:int ->
  ?analysis_domains:int ->
  ?history_limit:int ->
  ?check:bool ->
  job list ->
  (outcome, string) result

(** Human-readable outcome block ([ped batch]). *)
val report : outcome -> string
