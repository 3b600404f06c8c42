(** Unified tracing, metrics, and profiling.

    Everything funnels through a {!sink}.  A sink owns three kinds of
    state: named monotonic {e counters}, log-scale {e histograms}, and
    per-domain logs of nested {e spans}.  Counters and histograms are
    always live on a sink built with {!make}; span recording is a
    per-sink switch so the (hot) span API costs one load and branch
    when off.  {!null} is fully inert — every operation against it is
    a no-op — and is the initial value of the process-wide
    {!default} sink, so permanently-instrumented code pays a few
    nanoseconds until someone opts in.

    Spans are strictly nested per domain (opened and closed on the
    domain that created them); each domain appends to its own log, so
    concurrent emission never produces torn or interleaved records.
    Exporters render a human profile tree, a Chrome [trace_event]
    JSON file (one lane per domain), and a machine-readable metrics
    dump. *)

type sink
type counter
type histogram

(** A handle returned by {!open_span}; must be passed to
    {!close_span} in LIFO order. *)
type scope

(** Raised by {!close_span} on out-of-order or double close. *)
exception Discipline of string

(** Nanoseconds on the system monotonic clock ([CLOCK_MONOTONIC]).
    Safe across domains; never goes backwards. *)
external now_ns : unit -> (int64[@unboxed])
  = "tel_clock_ns_byte" "tel_clock_ns_unboxed"
[@@noalloc]

(** The inert sink: counters are dead, spans are never recorded. *)
val null : sink

(** A live sink.  Counters and histograms count from the start;
    span recording follows [record_spans] (default [false]) and can
    be flipped later with {!set_recording}. *)
val make : ?record_spans:bool -> unit -> sink

(** A live sink that records spans from the start — the
    capture-then-analyze configuration used by the performance
    debugger ({!drain_spans} hands the capture over). *)
val retained : unit -> sink

(** Process-wide default sink, initially {!null}.  Instrumentation
    points that have no natural way to receive a sink (deep library
    code, transformation catalog entries) emit here. *)
val default : unit -> sink

val set_default : sink -> unit

(** [metrics_on s] is false only for {!null}: guard work that exists
    purely to feed counters (e.g. building a counter name). *)
val metrics_on : sink -> bool

val recording : sink -> bool
val set_recording : sink -> bool -> unit

(** {1 Counters and histograms}

    Handles are interned by name: two lookups of the same name on the
    same sink return the same handle.  Updates are atomic and safe
    from any domain. *)

val counter : sink -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit

(** Accumulate a nanosecond interval into a counter ([int] holds
    ~292 years of nanoseconds on 64-bit). *)
val add_ns : counter -> int64 -> unit

val value : counter -> int

val histogram : sink -> string -> histogram

(** [observe h v] records sample [v] (clamped below at 0) into
    power-of-two buckets: bucket 0 holds 0, bucket [i] holds
    [2^(i-1) <= v < 2^i]. *)
val observe : histogram -> int -> unit

val hist_count : histogram -> int
val hist_sum : histogram -> int

(** Non-empty buckets as [(inclusive upper bound, count)], ascending. *)
val hist_buckets : histogram -> (int * int) list

(** [hist_quantile h q] — the smallest bucket upper bound covering at
    least fraction [q] (clamped to [0,1]) of the recorded samples; 0
    on an empty histogram.  Resolution is the power-of-two bucket
    width. *)
val hist_quantile : histogram -> float -> int

(** The bucket index {!observe} files a value under (exposed for
    tests). *)
val bucket_index : int -> int

(** {1 Spans} *)

(** [span s name f] runs [f] inside a span when [s] is recording and
    is exception-safe; when not recording it is just [f ()]. *)
val span : sink -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

val open_span : sink -> ?args:(string * string) list -> string -> scope

(** Closes the innermost open span of the calling domain; raises
    {!Discipline} if [scope] is not that span or is already
    closed. *)
val close_span : scope -> unit

(** [timed s c f] accumulates the monotonic duration of [f] into
    counter [c]; when [span_name] is given and [s] is recording, the
    interval is also emitted as a span, carrying [args_of] of [f]'s
    result as arguments.  Compiles to just [f ()] against {!null}. *)
val timed :
  sink ->
  ?span_name:string ->
  ?args_of:('a -> (string * string) list) ->
  counter ->
  (unit -> 'a) ->
  'a

(** [with_lane s lane f] — label every span the calling domain opens
    on [s] during [f] with [lane] (nests; the previous lane is
    restored).  Exporters give each (domain, lane) pair its own
    track, so concurrent sessions multiplexed over one domain — the
    analysis server — stay distinguishable in [ped --trace] output.
    Free when [s] is not recording. *)
val with_lane : sink -> string -> (unit -> 'a) -> 'a

(** {1 Inspection (tests, exporters)} *)

type span_record = {
  sp_name : string;
  sp_path : string list;  (** outermost-first, ending with [sp_name] *)
  sp_tid : int;           (** id of the emitting domain *)
  sp_lane : string option;
      (** ambient {!with_lane} label at open time (session id under
          the analysis server) *)
  sp_t0 : int64;
  sp_t1 : int64;
  sp_args : (string * string) list;
}

(** All closed spans, sorted by (domain, start time). *)
val spans : sink -> span_record list

val reset_spans : sink -> unit

(** Atomically {!spans} then {!reset_spans}: take ownership of the
    capture so far (perfdebug takes one run's spans this way). *)
val drain_spans : sink -> span_record list

val counters : sink -> (string * int) list

(** {1 Exporters} *)

(** Human-readable tree: spans aggregated by path with count, total
    and self time, followed by non-zero counters. *)
val profile_report : sink -> string

(** Chrome [trace_event] JSON ({["{"traceEvents":[...]}"]}): one
    complete ["ph":"X"] event per span, one lane ([tid]) per
    (domain, {!with_lane} label) pair with a [thread_name] metadata
    record — labeled lanes get synthetic tids past the real domain
    ids.  Open in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}. *)
val chrome_trace : sink -> string

val write_chrome_trace : sink -> string -> unit

(** [{"counters":{...},"histograms":{...}}] for bench; each histogram
    object carries [count], [sum], [p50]/[p95] (bucket-resolution
    quantiles) and the non-empty [buckets]. *)
val metrics_json : sink -> string
