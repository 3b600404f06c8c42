exception Discipline of string

external now_ns : unit -> (int64[@unboxed])
  = "tel_clock_ns_byte" "tel_clock_ns_unboxed"
[@@noalloc]

(* ------------------------------------------------------------------ *)
(* Counters and histograms                                             *)
(* ------------------------------------------------------------------ *)

(* The [c_live] flag lets [null] hand out one shared dead handle:
   updates against it are a load and a branch, nothing more. *)
type counter = { c_live : bool; c_v : int Atomic.t }

let dead_counter = { c_live = false; c_v = Atomic.make 0 }
let incr c = if c.c_live then ignore (Atomic.fetch_and_add c.c_v 1)
let add c n = if c.c_live then ignore (Atomic.fetch_and_add c.c_v n)
let add_ns c ns = add c (Int64.to_int ns)
let value c = Atomic.get c.c_v

type histogram = {
  h_live : bool;
  h_counts : int Atomic.t array; (* 64 power-of-two buckets *)
  h_sum : int Atomic.t;
  h_n : int Atomic.t;
}

let make_hist live =
  {
    h_live = live;
    h_counts = Array.init 64 (fun _ -> Atomic.make 0);
    h_sum = Atomic.make 0;
    h_n = Atomic.make 0;
  }

let dead_hist = make_hist false

(* Bucket 0 holds 0; bucket i holds 2^(i-1) <= v < 2^i. *)
let bucket_index v =
  if v <= 0 then 0
  else
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    bits v 0

let observe h v =
  if h.h_live then begin
    let v = max 0 v in
    ignore (Atomic.fetch_and_add h.h_counts.(bucket_index v) 1);
    ignore (Atomic.fetch_and_add h.h_sum v);
    ignore (Atomic.fetch_and_add h.h_n 1)
  end

let hist_count h = Atomic.get h.h_n
let hist_sum h = Atomic.get h.h_sum

let hist_buckets h =
  let out = ref [] in
  for i = Array.length h.h_counts - 1 downto 0 do
    let n = Atomic.get h.h_counts.(i) in
    if n > 0 then
      let ub = if i = 0 then 0 else (1 lsl i) - 1 in
      out := (ub, n) :: !out
  done;
  !out

(* Smallest bucket upper bound covering fraction [q] of the samples.
   Resolution is the bucket width (a factor of two), which is enough
   for the latency/size distributions this records. *)
let hist_quantile h q =
  let total = hist_count h in
  if total = 0 then 0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let need = int_of_float (ceil (q *. float_of_int total)) in
    let need = max 1 need in
    let rec go acc = function
      | [] -> 0 (* unreachable: cumulative count reaches [total] *)
      | (ub, n) :: rest ->
        let acc = acc + n in
        if acc >= need then ub else go acc rest
    in
    go 0 (hist_buckets h)
  end

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span_record = {
  sp_name : string;
  sp_path : string list;
  sp_tid : int;
  sp_lane : string option;
  sp_t0 : int64;
  sp_t1 : int64;
  sp_args : (string * string) list;
}

(* One log per (sink, domain): the emitting domain is the only writer,
   so closed records can never tear or interleave.  Readers snapshot
   under the sink lock; the registry mutation (one cons per domain) is
   also under the lock. *)
type log = {
  l_tid : int;
  mutable l_lane : string option;    (* ambient lane label (with_lane) *)
  mutable l_done : span_record list; (* newest first *)
  mutable l_stack : frame list;      (* innermost first *)
}

and frame = {
  f_name : string;
  f_args : (string * string) list;
  f_lane : string option;
  f_t0 : int64;
  f_log : log;
}

type scope = Off | On of frame

type sink = {
  s_metrics : bool;
  mutable s_rec : bool;
  s_lock : Mutex.t;
  s_ctab : (string, counter) Hashtbl.t;
  s_corder : string list ref; (* creation order, for stable exports *)
  s_htab : (string, histogram) Hashtbl.t;
  s_horder : string list ref;
  s_logs : log list ref;
  s_key : log Domain.DLS.key;
}

let locked s f =
  Mutex.lock s.s_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.s_lock) f

let make_sink ~metrics ~record_spans =
  let lock = Mutex.create () in
  let logs = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let l =
          { l_tid = (Domain.self () :> int); l_lane = None; l_done = [];
            l_stack = [] }
        in
        Mutex.lock lock;
        logs := l :: !logs;
        Mutex.unlock lock;
        l)
  in
  {
    s_metrics = metrics;
    s_rec = record_spans;
    s_lock = lock;
    s_ctab = Hashtbl.create 32;
    s_corder = ref [];
    s_htab = Hashtbl.create 8;
    s_horder = ref [];
    s_logs = logs;
    s_key = key;
  }

let null = make_sink ~metrics:false ~record_spans:false
let make ?(record_spans = false) () = make_sink ~metrics:true ~record_spans

(* A sink meant for in-memory capture-then-analyze use (perfdebug):
   spans are retained from the start and handed over via
   [drain_spans]. *)
let retained () = make_sink ~metrics:true ~record_spans:true
let default_sink = Atomic.make null
let default () = Atomic.get default_sink
let set_default s = Atomic.set default_sink s
let metrics_on s = s.s_metrics
let recording s = s.s_rec

let set_recording s on =
  if s == null then invalid_arg "Telemetry.set_recording: null sink";
  s.s_rec <- on

let counter s name =
  if not s.s_metrics then dead_counter
  else
    locked s (fun () ->
        match Hashtbl.find_opt s.s_ctab name with
        | Some c -> c
        | None ->
          let c = { c_live = true; c_v = Atomic.make 0 } in
          Hashtbl.add s.s_ctab name c;
          s.s_corder := name :: !(s.s_corder);
          c)

let histogram s name =
  if not s.s_metrics then dead_hist
  else
    locked s (fun () ->
        match Hashtbl.find_opt s.s_htab name with
        | Some h -> h
        | None ->
          let h = make_hist true in
          Hashtbl.add s.s_htab name h;
          s.s_horder := name :: !(s.s_horder);
          h)

let open_span s ?(args = []) name =
  if not s.s_rec then Off
  else
    let log = Domain.DLS.get s.s_key in
    let fr =
      { f_name = name; f_args = args; f_lane = log.l_lane; f_t0 = now_ns ();
        f_log = log }
    in
    log.l_stack <- fr :: log.l_stack;
    On fr

(* [with_lane s lane f] — label every span the calling domain opens on
   [s] during [f] with [lane].  The server wraps each session request
   in one, so traces from concurrent sessions multiplexed on one
   domain land in separate exporter lanes instead of interleaving. *)
let with_lane s lane f =
  if not s.s_rec then f ()
  else begin
    let log = Domain.DLS.get s.s_key in
    let prev = log.l_lane in
    log.l_lane <- Some lane;
    Fun.protect ~finally:(fun () -> log.l_lane <- prev) f
  end

(* [args] are appended to those the span was opened with. *)
let close_with args = function
  | Off -> ()
  | On fr -> (
    let log = fr.f_log in
    match log.l_stack with
    | top :: rest when top == fr ->
      log.l_stack <- rest;
      let path = List.rev_map (fun f -> f.f_name) log.l_stack @ [ fr.f_name ] in
      log.l_done <-
        {
          sp_name = fr.f_name;
          sp_path = path;
          sp_tid = log.l_tid;
          sp_lane = fr.f_lane;
          sp_t0 = fr.f_t0;
          sp_t1 = now_ns ();
          sp_args = fr.f_args @ args;
        }
        :: log.l_done
    | _ ->
      raise
        (Discipline
           (Printf.sprintf "close_span: %S is not the innermost open span"
              fr.f_name)))

let close_span sc = close_with [] sc

let span s ?args name f =
  if not s.s_rec then f ()
  else
    let sc = open_span s ?args name in
    Fun.protect ~finally:(fun () -> close_span sc) f

let timed s ?span_name ?(args_of = fun _ -> []) c f =
  if not (c.c_live || s.s_rec) then f ()
  else
    let sc =
      match span_name with
      | Some n when s.s_rec -> open_span s n
      | _ -> Off
    in
    let t0 = now_ns () in
    let stop args =
      add_ns c (Int64.sub (now_ns ()) t0);
      close_with args sc
    in
    match f () with
    | r ->
      stop (match sc with Off -> [] | On _ -> args_of r);
      r
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      stop [];
      Printexc.raise_with_backtrace e bt

let spans s =
  let logs = locked s (fun () -> !(s.s_logs)) in
  List.concat_map (fun l -> List.rev l.l_done) logs
  |> List.sort (fun a b ->
         match compare a.sp_tid b.sp_tid with
         | 0 -> Int64.compare a.sp_t0 b.sp_t0
         | c -> c)

let reset_spans s =
  let logs = locked s (fun () -> !(s.s_logs)) in
  List.iter (fun l -> l.l_done <- []) logs

let drain_spans s =
  let r = spans s in
  reset_spans s;
  r

let counters s =
  locked s (fun () ->
      List.rev_map (fun n -> (n, value (Hashtbl.find s.s_ctab n))) !(s.s_corder))

let histograms s =
  locked s (fun () ->
      List.rev_map (fun n -> (n, Hashtbl.find s.s_htab n)) !(s.s_horder))

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let ms_of_ns ns = Int64.to_float ns /. 1e6

let profile_report s =
  let all = spans s in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "telemetry profile: %d spans\n" (List.length all));
  if all <> [] then begin
    (* Aggregate (count, total ns) by path, keep first-seen order so
       children follow their parents. *)
    let tbl = Hashtbl.create 64 in
    let order = ref [] in
    List.iter
      (fun r ->
        let d = Int64.to_float (Int64.sub r.sp_t1 r.sp_t0) in
        match Hashtbl.find_opt tbl r.sp_path with
        | Some (n, tot) -> Hashtbl.replace tbl r.sp_path (n + 1, tot +. d)
        | None ->
          Hashtbl.add tbl r.sp_path (1, d);
          order := r.sp_path :: !order)
      all;
    let paths = List.sort compare (List.rev !order) in
    let self_of path total =
      Hashtbl.fold
        (fun p (_, tot) acc ->
          if
            List.length p = List.length path + 1
            && (match List.filteri (fun i _ -> i < List.length path) p with
               | prefix -> prefix = path)
          then acc -. tot
          else acc)
        tbl total
    in
    Buffer.add_string buf
      (Printf.sprintf "  %-44s %8s %12s %12s\n" "span" "count" "total" "self");
    List.iter
      (fun path ->
        let n, total = Hashtbl.find tbl path in
        let depth = List.length path - 1 in
        let name =
          String.make (2 * depth) ' ' ^ List.nth path depth
        in
        Buffer.add_string buf
          (Printf.sprintf "  %-44s %8d %10.3fms %10.3fms\n" name n
             (total /. 1e6)
             (self_of path total /. 1e6)))
      paths
  end;
  let cs = List.filter (fun (_, v) -> v <> 0) (counters s) in
  if cs <> [] then begin
    Buffer.add_string buf "counters:\n";
    List.iter
      (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "  %-46s %10d\n" n v))
      (List.sort compare cs)
  end;
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let chrome_trace s =
  let all = spans s in
  let t_base =
    List.fold_left
      (fun acc r -> if Int64.compare r.sp_t0 acc < 0 then r.sp_t0 else acc)
      (match all with [] -> 0L | r :: _ -> r.sp_t0)
      all
  in
  let us_of ns = Int64.to_float (Int64.sub ns t_base) /. 1e3 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let emit s =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf "\n";
    Buffer.add_string buf s
  in
  (* One lane per (domain, lane label): unlabeled spans keep their
     domain id as tid; labeled ones (sessions multiplexed on one
     domain) get synthetic tids past the real domain ids, so each
     session renders as its own named track. *)
  let keys =
    List.sort_uniq compare (List.map (fun r -> (r.sp_tid, r.sp_lane)) all)
  in
  let max_tid = List.fold_left (fun acc r -> max acc r.sp_tid) 0 all in
  let display = Hashtbl.create 8 in
  let next = ref max_tid in
  List.iter
    (fun (tid, lane) ->
      let dt =
        match lane with
        | None -> tid
        | Some _ ->
          next := !next + 1;
          !next
      in
      Hashtbl.replace display (tid, lane) dt;
      let name =
        match lane with
        | None -> Printf.sprintf "domain %d" tid
        | Some l -> Printf.sprintf "domain %d \xc2\xb7 %s" tid (json_escape l)
      in
      emit
        (Printf.sprintf
           "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\
            \"args\":{\"name\":\"%s\"}}"
           dt name))
    keys;
  let tid_of r =
    Option.value ~default:r.sp_tid
      (Hashtbl.find_opt display (r.sp_tid, r.sp_lane))
  in
  List.iter
    (fun r ->
      let args =
        match r.sp_args with
        | [] -> ""
        | kvs ->
          ",\"args\":{"
          ^ String.concat ","
              (List.map
                 (fun (k, v) ->
                   Printf.sprintf "\"%s\":\"%s\"" (json_escape k)
                     (json_escape v))
                 kvs)
          ^ "}"
      in
      emit
        (Printf.sprintf
           "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\",\
            \"cat\":\"ped\",\"ts\":%.3f,\"dur\":%.3f%s}"
           (tid_of r) (json_escape r.sp_name) (us_of r.sp_t0)
           (ms_of_ns (Int64.sub r.sp_t1 r.sp_t0) *. 1e3)
           args))
    all;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write_chrome_trace s path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_trace s))

let metrics_json s =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"counters\":{";
  let cs = List.sort compare (counters s) in
  List.iteri
    (fun i (n, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":%d" (json_escape n) v))
    cs;
  Buffer.add_string buf "},\"histograms\":{";
  let hs = List.sort compare (histograms s) in
  List.iteri
    (fun i (n, h) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\"%s\":{\"count\":%d,\"sum\":%d,\"p50\":%d,\"p95\":%d,\
            \"buckets\":[%s]}"
           (json_escape n) (hist_count h) (hist_sum h)
           (hist_quantile h 0.5) (hist_quantile h 0.95)
           (String.concat ","
              (List.map
                 (fun (ub, n) -> Printf.sprintf "[%d,%d]" ub n)
                 (hist_buckets h)))))
    hs;
  Buffer.add_string buf "}}";
  Buffer.contents buf
