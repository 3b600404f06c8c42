(* Measurement primitives shared by the three workloads: the clock,
   sample statistics, the run's result record, the per-layer span
   accounting of the traced run, and the JSON result line. *)

let now_s () = Int64.to_float (Telemetry.now_ns ()) /. 1e9

(* [timed f] = (f (), wall seconds). *)
let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* ------------------------------------------------------------------ *)
(* Sample statistics                                                   *)
(* ------------------------------------------------------------------ *)

let sorted xs = List.sort Float.compare xs

(* Linear-interpolation quantile of a non-empty sample, [q] in [0,1]. *)
let quantile q xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun a x -> a +. log (Float.max 1e-12 x)) 0.0 xs
      /. float_of_int (List.length xs))

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The highest of the usual percentiles that still has at least ten
   samples beyond it, as (label, value); the median when the sample is
   too small for any tail. *)
let tail xs =
  let n = List.length xs in
  let beyond p = float_of_int n *. (1.0 -. p) >= 10.0 in
  let pick =
    List.find_opt beyond [ 0.999; 0.99; 0.95; 0.9; 0.75 ]
    |> Option.value ~default:0.5
  in
  (Printf.sprintf "p%g" (pick *. 100.0), quantile pick xs)

(* ------------------------------------------------------------------ *)
(* Run records                                                         *)
(* ------------------------------------------------------------------ *)

(* What one workload run reports: ops attempted and
   failed (a failed oracle check is a failed op), the gated metrics,
   and detail lines printed before the result. *)
type result = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  detail : string list;
}

let failures : string list ref = ref []
let oracle_failed = ref 0

(* Record why an op or a check failed; printed with the run's detail. *)
let fail what = failures := what :: !failures

(* An oracle check; each one that does not hold counts as a failed op. *)
let check what ok =
  if not ok then begin
    fail what;
    incr oracle_failed
  end

(* A labelled sample series: the per-class latency record every
   workload keeps. *)
type series = (string, float list ref) Hashtbl.t

let series () : series = Hashtbl.create 16

let add (s : series) cls v =
  match Hashtbl.find_opt s cls with
  | Some r -> r := v :: !r
  | None -> Hashtbl.replace s cls (ref [ v ])

let samples (s : series) cls =
  match Hashtbl.find_opt s cls with Some r -> !r | None -> []

let classes (s : series) =
  Hashtbl.fold (fun k _ acc -> k :: acc) s [] |> List.sort String.compare

(* Geomean over classes of each class's median: one class getting
   faster moves it, whatever the class mix of the run. *)
let class_geomean (s : series) =
  geomean (List.map (fun c -> median (samples s c)) (classes s))

(* One detail line per class: median, tail and sample count. *)
let class_lines ?(prefix = "") ~unit (s : series) =
  List.map
    (fun c ->
      let xs = samples s c in
      let tl, tv = tail xs in
      Printf.sprintf "%s%s: p50 %.3f %s, %s %.3f %s, n=%d" prefix c (median xs)
        unit tl tv unit (List.length xs))
    (classes s)

let heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Traced run: spans, parents and self time                            *)
(* ------------------------------------------------------------------ *)

(* The recording sink of a traced run; [None] when timing. *)
let trace_sink : Telemetry.sink option ref = ref None

(* True while the traced phase of a traced run records. *)
let tracing () =
  match !trace_sink with Some s -> Telemetry.recording s | None -> false

(* Wrap one call into a layer in a span named after the layer, when
   tracing; just the call otherwise. *)
let layer name f =
  match !trace_sink with None -> f () | Some s -> Telemetry.span s name f

type node = {
  n_id : int;
  n_rec : Telemetry.span_record;
  n_parent : int option;
  mutable n_child_ns : int64;
}

let dur (r : Telemetry.span_record) = Int64.sub r.Telemetry.sp_t1 r.sp_t0

(* Recover each span's parent — the innermost span of the same domain
   whose interval contains it — and the time its children cover. *)
let nodes (spans : Telemetry.span_record list) =
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun (r : Telemetry.span_record) ->
      let l = Option.value ~default:[] (Hashtbl.find_opt by_tid r.sp_tid) in
      Hashtbl.replace by_tid r.sp_tid (r :: l))
    spans;
  let out = ref [] and next = ref 0 in
  Hashtbl.iter
    (fun _ rs ->
      let rs =
        List.sort
          (fun (a : Telemetry.span_record) (b : Telemetry.span_record) ->
            match Int64.compare a.sp_t0 b.sp_t0 with
            | 0 -> Int64.compare b.sp_t1 a.sp_t1
            | c -> c)
          rs
      in
      let stack = ref [] in
      List.iter
        (fun (r : Telemetry.span_record) ->
          let rec pop = function
            | (p : node) :: rest when Int64.compare p.n_rec.sp_t1 r.sp_t0 <= 0
              ->
              pop rest
            | st -> st
          in
          stack := pop !stack;
          let parent = match !stack with p :: _ -> Some p | [] -> None in
          Option.iter
            (fun p -> p.n_child_ns <- Int64.add p.n_child_ns (dur r))
            parent;
          let n =
            {
              n_id = !next;
              n_rec = r;
              n_parent = Option.map (fun p -> p.n_id) parent;
              n_child_ns = 0L;
            }
          in
          incr next;
          out := n :: !out;
          stack := n :: !stack)
        rs)
    by_tid;
  List.rev !out

(* Per span name: (count, total ms, self ms), sorted by self time. *)
let self_table nodes =
  let t = Hashtbl.create 32 in
  List.iter
    (fun n ->
      let name = n.n_rec.Telemetry.sp_name in
      let c, tot, self =
        Option.value ~default:(0, 0L, 0L) (Hashtbl.find_opt t name)
      in
      let d = dur n.n_rec in
      Hashtbl.replace t name
        (c + 1, Int64.add tot d, Int64.add self (Int64.sub d n.n_child_ns)))
    nodes;
  Hashtbl.fold
    (fun name (c, tot, self) acc ->
      (name, c, Int64.to_float tot /. 1e6, Int64.to_float self /. 1e6) :: acc)
    t []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a)

let table_lines title rows =
  Printf.sprintf "%s" title
  :: Printf.sprintf "  %-28s %8s %12s %12s" "span" "count" "total ms" "self ms"
  :: List.map
       (fun (name, c, tot, self) ->
         Printf.sprintf "  %-28s %8d %12.3f %12.3f" name c tot self)
       rows

(* Sum of span durations (ms) of one name. *)
let span_total_ms nodes name =
  List.fold_left
    (fun acc n ->
      if String.equal n.n_rec.Telemetry.sp_name name then
        acc +. (Int64.to_float (dur n.n_rec) /. 1e6)
      else acc)
    0.0 nodes

let span_count nodes name =
  List.length
    (List.filter (fun n -> String.equal n.n_rec.Telemetry.sp_name name) nodes)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit as measured.  JSON has no NaN or infinity: a missing
   value is written as null, so it cannot pass for a measurement. *)
let json_float f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

(* The spans of a traced run, with parent ids, and its self-time
   table: written once, when the run ends. *)
let write_trace ~file ~workload ~seed nodes rows =
  let oc = open_out file in
  Printf.fprintf oc "{\"workload\":%s,\"seed\":%d,\"self_ms\":{"
    (json_string workload) seed;
  List.iteri
    (fun i (name, c, tot, self) ->
      Printf.fprintf oc "%s%s:{\"count\":%d,\"total\":%s,\"self\":%s}"
        (if i = 0 then "" else ",")
        (json_string name) c (json_float tot) (json_float self))
    rows;
  output_string oc "},\"spans\":[";
  List.iteri
    (fun i n ->
      let r = n.n_rec in
      Printf.fprintf oc
        "%s\n{\"id\":%d,\"name\":%s,\"tid\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld,\"parent\":%s}"
        (if i = 0 then "" else ",")
        n.n_id (json_string r.Telemetry.sp_name) r.sp_tid r.sp_t0 r.sp_t1
        (match n.n_parent with Some p -> string_of_int p | None -> "null"))
    nodes;
  output_string oc "\n]}\n";
  close_out oc
