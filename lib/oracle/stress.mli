(** Stress-workload factory: composes {!Gen}'s unit generator into
    whole multi-unit programs with tunable size knobs — deep nests,
    wide units, many units under a layered call graph, 100k+-line
    totals — for pressure-testing the engine, the analysis server and
    the parallel analyzer at sizes where cache eviction and domain
    scaling actually show.

    Every program is deterministic in [(seed, profile)]: the generator
    draws from a private [Random.State.t] seeded from [seed], and the
    result is passed through {!Ast.renumber_program}, so the same pair
    produces byte-identical source and identical engine fingerprints
    in any process.

    Generated programs share {!Gen}'s storage shape: real arrays [A],
    [B] (bounds (-4,44)) and [C] (bounds (-4,28)²), scalars [T], [S],
    [K], [N].  Subroutines take [(A, B, C, N)] by reference and
    re-establish their local scalars, so fuzz-scale variants stay
    interpretable; CALLs sit at statement level only, never inside a
    generated loop. *)

open Fortran_front

type profile = {
  sp_name : string;
  sp_desc : string;
  sp_subs : int;       (** generated subroutines (the main unit is extra) *)
  sp_layers : int;     (** call-graph layers the subroutines partition into *)
  sp_fanout : int;     (** calls from one unit into the next layer *)
  sp_sub_nests : int;  (** loop nests per subroutine *)
  sp_main_nests : int; (** loop nests in the main unit *)
  sp_depth : int;      (** depth of the dedicated perfect nests *)
  sp_deep_every : int; (** every k-th nest is perfect [sp_depth]; 0 = never *)
  sp_gen : Gen.cfg;    (** shape of the general nests *)
}

(** Deep loop nests: perfect depth-6 nests alternating with general
    nests to depth 5. *)
val deep : profile

(** Wide units: two units of hundreds of statements across many
    shallow nests — quadratic pressure on bucket planning, and cache
    entries big enough to evict. *)
val wide : profile

(** Hundreds of units under a layered call-graph DAG — the
    interprocedural summary walk and per-unit cache volume; the
    100k-line flagship via {!scale_to_lines}. *)
val many_units : profile

val all : profile list
val names : string list

(** Case-insensitive; accepts "many-units" and "many_units" alike. *)
val by_name : string -> profile option

(** Multiply the unit/nest counts by a factor (each floored at 1). *)
val scale : float -> profile -> profile

(** The CI-sized variant of a profile. *)
val smoke : profile -> profile

(** [generate ?seed p] — the program, renumbered to canonical ids.
    Raises [Invalid_argument] on malformed knobs (zero units, nest
    depth beyond {!Gen.depth_limit}, ...). *)
val generate : ?seed:int -> profile -> Ast.program

(** [source ?seed p] = the pretty-printed program text; re-parsing it
    round-trips (the printer's property). *)
val source : ?seed:int -> profile -> string

(** Newline count of a source text. *)
val lines : string -> int

(** [scale_to_lines ?seed ~target p] — iteratively rescale [p] until
    its source reaches [target] lines; returns the profile and the
    source it settled on. *)
val scale_to_lines : ?seed:int -> target:int -> profile -> profile * string

(** {!Content.program} of the renumbered program, in hex — stable
    across processes for equal [(seed, profile)]. *)
val fingerprint : Ast.program -> string

(** A small, interpretable variant for the fuzz driver (capped units
    and depth so the simulator's step budget holds). *)
val tiny : profile -> profile

(** Per-draw generator for [ped fuzz --stress]: a fresh [tiny] program
    seeded from the driver's per-program rng. *)
val fuzz_gen : profile -> Random.State.t -> Ast.program
