(* serve-mix: an in-process analysis server with two interleaved
   client sessions in a closed loop, one request at a time.  Each
   session opens a program drawn by seed from a fixed pool (the 17
   kernels and fractional-scale stress programs), runs a fixed script
   and closes.  Programs repeat across sessions, so later opens hit
   the shared cache; its budget sits below the working set, so the
   LRU evicts. *)

open Fortran_front
open Dependence
module Session = Ped.Session

type prog = {
  p_name : string;
  p_file : string;  (** source written under the run's temp dir *)
  p_source : string;
  p_asserts : string list;
}

(* Stress programs at fractional scale, fixed generator seeds: cold
   first panes from a few ms (kernels) to a few hundred ms. *)
let stress_pool =
  [
    ("deep", 0.25, [ 1; 2 ]);
    ("wide", 0.15, [ 1; 2 ]);
    ("many-units", 0.1, [ 1; 2; 3 ]);
  ]

let cache_budget_mb = 32

let heap_after_passes = 8

let pool ~tmp =
  let kernels =
    List.map
      (fun (w : Workloads.t) ->
        (w.Workloads.name, w.Workloads.source, w.Workloads.assertion_script))
      Workloads.all
  in
  let stress =
    List.concat_map
      (fun (name, scale, seeds) ->
        let prof = Option.get (Oracle.Stress.by_name name) in
        List.map
          (fun seed ->
            ( Printf.sprintf "%s@%g#%d" name scale seed,
              Oracle.Stress.source ~seed (Oracle.Stress.scale scale prof),
              [] ))
          seeds)
      stress_pool
  in
  List.mapi
    (fun i (name, source, asserts) ->
      let file = Filename.concat tmp (Printf.sprintf "p%02d.f" i) in
      Out_channel.with_open_bin file (fun oc -> output_string oc source);
      { p_name = name; p_file = file; p_source = source; p_asserts = asserts })
    (kernels @ stress)

(* One step of the fixed session script.  Arguments that depend on the
   program (which loop, which dependence, which statement) are chosen
   when the step is issued, from what the session's panes show, as a
   client reading the panes would. *)
type step =
  | Open
  | Loops
  | Deps of string  (** class label *)
  | Assert of string
  | Explain
  | Apply
  | Why
  | Edit
  | Undo
  | Close

let script (p : prog) =
  [ Open; Loops; Deps "deps" ]
  @ List.map (fun a -> Assert a) p.p_asserts
  @ [ Explain; Apply; Why; Edit; Deps "deps_after_edit"; Undo;
      Deps "deps_after_undo"; Close ]

(* The loop the script explains and parallelizes: the first one the
   session can parallelize, else the first loop. *)
let target_loop sess =
  let loops = Session.loops sess in
  let rec index i = function
    | [] -> None
    | (l : Loopnest.loop) :: rest ->
      if Session.is_parallelizable sess l.Loopnest.lstmt.Ast.sid then Some i
      else index (i + 1) rest
  in
  match index 1 loops with
  | Some i -> Some i
  | None -> if loops = [] then None else Some 1

(* The command line of a step against session [sess] (None: the step
   does not apply to this program and is skipped). *)
let command sess = function
  | Loops -> Some "loops"
  | Deps _ -> Some "deps"
  | Assert a -> Some a
  | Explain ->
    Option.map (Printf.sprintf "explain parallelize l%d") (target_loop sess)
  | Apply -> Option.map (Printf.sprintf "apply parallelize l%d") (target_loop sess)
  | Why -> (
    match (Session.ddg sess).Ddg.deps with
    | d :: _ -> Some (Printf.sprintf "why %d" d.Ddg.dep_id)
    | [] -> None)
  | Edit ->
    Option.map
      (fun (s : Ast.stmt) ->
        Printf.sprintf "edit s%d %s + 1" s.Ast.sid
          (String.trim (Pretty.stmt_to_string s)))
      (Units.first_assign
         (Units.find_unit (Session.program sess) (Session.unit_name sess)))
  | Undo -> Some "undo"
  | Open | Close -> None

let class_of = function
  | Open -> "open"
  | Loops -> "loops"
  | Deps c -> c
  | Assert _ -> "assert"
  | Explain -> "explain"
  | Apply -> "apply"
  | Why -> "why"
  | Edit -> "edit"
  | Undo -> "undo"
  | Close -> "close"

let ddg_digest (g : Ddg.t) =
  Digest.to_hex (Digest.string (Marshal.to_string g [ Marshal.No_sharing ]))

let response_ok = function
  | Error _ -> false
  | Ok (_, lines) ->
    not
      (List.exists
         (fun l ->
           let l = String.trim l in
           String.length l >= 6 && String.sub l 0 6 = "error:")
         lines)

(* The script replayed from scratch: no cache, no sharing, a fresh
   non-caching session — the final graph every served session of this
   program must reproduce. *)
let scratch_digest (p : prog) =
  let prog =
    Ast.renumber_program (Parser.parse_program ~file:p.p_file p.p_source)
  in
  let sess = Session.load ~caching:false prog ~unit_name:(Units.main_name prog) in
  List.iter
    (fun st ->
      match command sess st with
      | Some line -> ignore (Ped.Command.run sess line)
      | None -> ())
    (script p);
  ddg_digest (Session.ddg sess)

type client = {
  mutable c_id : string;
  mutable c_prog : prog;
  mutable c_steps : step list;
  mutable c_open_ms : float;
}

let run ~seed ~seconds ~setups ~tmp =
  let telemetry = !Meas.trace_sink in
  let build () =
    let programs = pool ~tmp in
    let cache = Server.Cache.create ?telemetry ~budget_mb:cache_budget_mb () in
    let server = Server.Serve.create ?telemetry ~cache () in
    (Array.of_list programs, cache, server)
  in
  let built = List.init setups (fun _ -> Meas.timed build) in
  let (programs, cache, server), _ = List.nth built (setups - 1) in
  let setup_s = Meas.median (List.map snd built) in
  (* sessions draw programs from a deck: every program once per pass,
     in a seeded order, so every run serves the same mix *)
  let rng = Random.State.make [| seed; 0x5E4E |] in
  let deck = ref [] in
  let draw () =
    if !deck = [] then begin
      let a = Array.copy programs in
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      deck := Array.to_list a
    end;
    match !deck with
    | p :: rest ->
      deck := rest;
      p
    | [] -> assert false
  in
  let next_id = ref 0 in
  let fresh (c : client) =
    incr next_id;
    c.c_id <- Printf.sprintf "c%d" !next_id;
    c.c_prog <- draw ();
    c.c_steps <- script c.c_prog
  in
  let clients =
    Array.init 2 (fun _ ->
        let c =
          { c_id = ""; c_prog = programs.(0); c_steps = []; c_open_ms = 0. }
        in
        fresh c;
        c)
  in
  let reqs = Meas.series () in
  let first_pane = ref [] and all_ms = ref [] in
  let pane_ms = ref [] in
  let finals = Hashtbl.create 32 in
  let attempted = ref 0 and failed = ref 0 in
  let sessions = ref 0 and heap = ref nan in
  (* One request of client [c]: its next script step. *)
  let step (c : client) =
    match c.c_steps with
    | [] -> fresh c
    | st :: rest -> (
      c.c_steps <- rest;
      let sess () = Server.Serve.find_session server c.c_id in
      let line =
        match st with
        | Open -> Some (Printf.sprintf "open %s %s" c.c_id c.c_prog.p_file)
        | Close ->
          (* remember the final graph for the replay oracle *)
          Option.iter
            (fun s ->
              let d = ddg_digest (Session.ddg s) in
              let l = Option.value ~default:[] (Hashtbl.find_opt finals c.c_prog.p_name) in
              Hashtbl.replace finals c.c_prog.p_name ((c.c_id, d) :: l))
            (sess ());
          Some (Printf.sprintf "close %s" c.c_id)
        | _ ->
          Option.bind (sess ()) (fun s ->
              Option.map (Printf.sprintf "cmd %s %s" c.c_id) (command s st))
      in
      match line with
      | None -> ()
      | Some line ->
        incr attempted;
        let cls = class_of st in
        let resp, dt =
          Meas.timed (fun () ->
              Meas.layer ("server.handle." ^ cls) (fun () ->
                  match Server.Protocol.parse line with
                  | Error e -> Error e
                  | Ok req -> Server.Serve.handle server req))
        in
        let ms = dt *. 1000. in
        if response_ok resp then begin
          Meas.add reqs cls ms;
          all_ms := ms :: !all_ms;
          (match st with
          | Open -> c.c_open_ms <- ms
          | Loops -> first_pane := (c.c_open_ms +. ms) :: !first_pane
          | Close ->
            incr sessions;
            (* the high-water mark after a fixed number of passes over
               the deck, so it does not grow with speed; the bucket
               memo outside the cache budget still shows as growth *)
            if !sessions = heap_after_passes * Array.length programs then
              heap := Meas.heap_mb ()
          | _ -> ());
          (* a pane on the now-analysed session, timed directly *)
          if Meas.tracing () && st = Loops then
            Option.iter
              (fun s ->
                let (), p =
                  Meas.timed (fun () ->
                      Meas.layer "core.pane" (fun () ->
                          ignore (Ped.Pane.loops_pane s);
                          ignore (Ped.Pane.dependence_pane s)))
                in
                pane_ms := (p *. 1000.) :: !pane_ms)
              (sess ())
        end
        else begin
          incr failed;
          Meas.fail
            (Printf.sprintf "serve: %s on %s: %s" line c.c_prog.p_name
               (match resp with
               | Error e -> e
               | Ok (_, l) -> String.concat " | " l))
        end)
  in
  let loop budget =
    let t0 = Meas.now_s () in
    let n0 = !attempted in
    let turn = ref 0 in
    while Meas.now_s () -. t0 < budget do
      step clients.(!turn land 1);
      incr turn
    done;
    (!attempted - n0, Meas.now_s () -. t0)
  in
  let untraced_gm = ref nan in
  let n_req, wall =
    match telemetry with
    | None -> loop seconds
    | Some sink ->
      (* untraced half first, for the overhead ratio; then the traced
         half the layer metrics come from *)
      let _ = loop (seconds /. 2.) in
      untraced_gm := Meas.class_geomean reqs;
      Hashtbl.reset reqs;
      Telemetry.set_recording sink true;
      let r = loop (seconds /. 2.) in
      Telemetry.set_recording sink false;
      r
  in
  (* oracle: each session's final graph equals a from-scratch replay
     of its script *)
  Hashtbl.iter
    (fun name finals ->
      let p = Array.to_list programs |> List.find (fun p -> p.p_name = name) in
      let want = scratch_digest p in
      List.iter
        (fun (id, d) ->
          Meas.check
            (Printf.sprintf "serve: session %s on %s: final graph differs from replay"
               id name)
            (String.equal d want))
        finals)
    finals;
  let cstats = Server.Cache.stats cache in
  let heap = if Float.is_nan !heap then Meas.heap_mb () else !heap in
  let tl, tv = Meas.tail !all_ms in
  let rps = float_of_int n_req /. wall in
  let e2e =
    [
      ("setup_s", setup_s, "s");
      ("op_ms.geomean", Meas.class_geomean reqs, "ms");
      ("ops_per_s", rps, "1/s");
      ("first_result_ms.p50", Meas.median !first_pane, "ms");
      ("peak_heap_mb", heap, "MB");
    ]
  in
  let figures =
    [
      ("setup_s", setup_s, "s");
      ("request_ms.p50", Meas.median !all_ms, "ms");
      ("request_ms.p99", Meas.quantile 0.99 !all_ms, "ms");
      ("first_pane_ms.p50", Meas.median !first_pane, "ms");
      ("requests_per_s", rps, "1/s");
      ("peak_heap_mb", heap, "MB");
    ]
  in
  let med cls = Meas.median (Meas.samples reqs cls) in
  let layer_metrics =
    match telemetry with
    | None -> []
    | Some _ ->
      let parse_ms =
        Meas.median
          (Array.to_list programs
          |> List.map (fun p ->
                 snd
                   (Meas.timed (fun () ->
                        Parser.parse_program ~file:p.p_file p.p_source))
                 *. 1000.))
      in
      let cmd =
        List.concat_map (Meas.samples reqs)
          [ "loops"; "deps"; "assert"; "explain"; "apply"; "why"; "edit";
            "deps_after_edit"; "undo"; "deps_after_undo" ]
      in
      [
        ("fortran.parse_ms", parse_ms);
        ("core.pane_ms", Meas.median !pane_ms);
        ("transform.explain_ms", med "explain");
        ("transform.apply_ms", med "apply");
        ("server.cache.hit_ratio", Server.Cache.hit_rate cstats);
        ("server.cache.evictions", float_of_int cstats.Server.Cache.evictions);
        ("server.cache.bytes", float_of_int cstats.Server.Cache.bytes);
        ("server.handle_ms.open", med "open");
        ("server.handle_ms.cmd", Meas.median cmd);
        ("server.handle_ms.close", med "close");
        ("trace_overhead_ratio", Meas.class_geomean reqs /. !untraced_gm);
      ]
  in
  let detail =
    Printf.sprintf
      "serve: pool of %d programs, cache budget %d MB, %d sessions closed, %d \
       requests in %.3f s"
      (Array.length programs) cache_budget_mb !sessions n_req wall
    :: Printf.sprintf "serve: request latency %s %.3f ms over %d requests" tl tv
         (List.length !all_ms)
    :: Printf.sprintf
         "serve: cache %d entries, %d bytes, hit rate %.4f, %d evictions"
         cstats.Server.Cache.entries cstats.Server.Cache.bytes
         (Server.Cache.hit_rate cstats) cstats.Server.Cache.evictions
    :: Meas.class_lines ~prefix:"request " ~unit:"ms" reqs
  in
  ( { Meas.attempted = !attempted; failed = !failed; metrics = e2e; detail },
    figures,
    layer_metrics )
