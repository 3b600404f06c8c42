(* flagship-edit: the 100k-line many-units program, loaded once; one
   client edits in a closed loop.  Each op focuses a unit, appends
   "+ 1" to the right-hand side of its first assignment, refreshes the
   dependence pane, then undoes and refreshes again.  Sites alternate
   between the main unit and a seeded leaf subroutine. *)

open Fortran_front
open Dependence
open Units
module Session = Ped.Session

(* The ROADMAP flagship: the many-units profile with its subroutine
   count grown until the source reaches 100k lines (what
   [Stress.scale_to_lines ~target:100_000] settles on: 1030 units,
   102 094 lines).  The program is the same for every run seed; the
   seed picks the leaf edit sites, so runs differ in what they edit,
   not in what they load. *)
let profile = { Oracle.Stress.many_units with Oracle.Stress.sp_subs = 1029 }

let calls_nothing (u : Ast.program_unit) =
  Ast.fold_stmts
    (fun acc (s : Ast.stmt) ->
      acc && match s.Ast.node with Ast.Call _ -> false | _ -> true)
    true u.Ast.body

(* Leaf subroutines that have an assignment to edit, by name. *)
let leaves (p : Ast.program) =
  List.filter
    (fun (u : Ast.program_unit) ->
      u.Ast.kind <> Ast.Main && calls_nothing u && first_assign u <> None)
    p.Ast.punits
  |> List.map (fun (u : Ast.program_unit) -> u.Ast.uname)
  |> List.sort String.compare |> Array.of_list

type setup = {
  gen_s : float;
  parse_s : float;
  load_s : float;  (** parse + load + first dependence pane *)
}

(* Generation, parse, renumber, load and the first pane. *)
let setup ~telemetry =
  let src, gen_s = Meas.timed (fun () -> Oracle.Stress.source profile) in
  let t0 = Meas.now_s () in
  let prog, parse_s =
    Meas.timed (fun () -> Parser.parse_program ~file:"flagship.f" src)
  in
  let prog = Ast.renumber_program prog in
  let sess = Session.load ?telemetry prog ~unit_name:(main_name prog) in
  ignore (Session.visible_deps sess);
  (sess, { gen_s; parse_s; load_s = Meas.now_s () -. t0 })

let heap_after_ops = 4

let stats_delta (a : Engine.stats) (b : Engine.stats) =
  ( b.Engine.summary_s -. a.Engine.summary_s,
    b.Engine.env_s -. a.Engine.env_s,
    b.Engine.ddg_s -. a.Engine.ddg_s )

(* Per-class attribution of op walls to the engine layers. *)
type attrib = {
  mutable a_n : int;
  mutable a_wall : float;
  mutable a_summary : float;
  mutable a_env : float;
  mutable a_ddg : float;
}

(* Exact counts and replay timings of the traced phase. *)
type trace_acc = {
  mutable edits : int;
  mutable replay_summary : float list;
  mutable replay_env : float list;
  mutable plan : float list;
  mutable test : float list;
  mutable assemble : float list;
  mutable focus : float list;
  mutable prefix_tasks : int;
  mutable prefix_tests : int;
  mutable prefix_env_misses : int;
  mutable prefix_summary_builds : int;
  mutable bucket_hits : int;
  mutable bucket_misses : int;
  mutable prefix_done : int;
}

let ok_or what = function Ok () -> true | Error e -> Meas.fail (what ^ ": " ^ e); false

(* The staged dependence pipeline replayed from scratch on the edited
   unit, one layer call at a time; the result doubles as an oracle
   for the engine-served graph. *)
let replay sess (acc : trace_acc) =
  let prog = Session.program sess in
  let u = find_unit prog (Session.unit_name sess) in
  let summary, s_sum =
    Meas.timed (fun () ->
        Meas.layer "interproc.summary" (fun () -> Interproc.Summary.analyze prog))
  in
  let env, s_env =
    Meas.timed (fun () ->
        Meas.layer "dependence.env" (fun () ->
            Interproc.Summary.env_for ~config:(Session.config sess)
              ~asserts:(Session.assertions sess) summary u))
  in
  let plan, s_plan =
    Meas.timed (fun () -> Meas.layer "ddg.plan" (fun () -> Ddg.plan env))
  in
  let tasks = Ddg.tasks plan in
  let outs, s_test =
    Meas.timed (fun () ->
        Meas.layer "ddg.test" (fun () ->
            Array.map
              (fun t -> { Ddg.o_bucket = Ddg.test plan t; o_cached = false })
              tasks))
  in
  let g, s_asm =
    Meas.timed (fun () -> Meas.layer "ddg.assemble" (fun () -> Ddg.assemble plan outs))
  in
  Meas.check
    ("flagship: engine graph of " ^ u.Ast.uname ^ " differs from the staged replay")
    (Ddg.equal g (Session.ddg sess));
  acc.replay_summary <- s_sum :: acc.replay_summary;
  acc.replay_env <- s_env :: acc.replay_env;
  acc.plan <- s_plan :: acc.plan;
  acc.test <- s_test :: acc.test;
  acc.assemble <- s_asm :: acc.assemble;
  Array.length tasks

let run ~seed ~seconds ~setups =
  let telemetry = !Meas.trace_sink in
  (* set-up, several times: the median is the reported figure; the
     last session is the one the clients edit *)
  let sess = ref None in
  let runs =
    List.init setups (fun _ ->
        (* only the session the clients edit stays live *)
        sess := None;
        Gc.compact ();
        let s, timing = setup ~telemetry in
        sess := Some s;
        timing)
  in
  let sess = Option.get !sess in
  let prog0 = Session.program sess in
  let main = main_name prog0 in
  let leaf_names = leaves prog0 in
  let rng = Random.State.make [| seed; 0xF1A6 |] in
  let ops = Meas.series () in
  let edited = Hashtbl.create 16 in
  let attrib = Hashtbl.create 4 in
  let attr cls wall (ds, de, dd) =
    let a =
      match Hashtbl.find_opt attrib cls with
      | Some a -> a
      | None ->
        let a = { a_n = 0; a_wall = 0.; a_summary = 0.; a_env = 0.; a_ddg = 0. } in
        Hashtbl.replace attrib cls a;
        a
    in
    a.a_n <- a.a_n + 1;
    a.a_wall <- a.a_wall +. wall;
    a.a_summary <- a.a_summary +. ds;
    a.a_env <- a.a_env +. de;
    a.a_ddg <- a.a_ddg +. dd
  in
  let acc =
    {
      edits = 0; replay_summary = []; replay_env = []; plan = []; test = [];
      assemble = []; focus = []; prefix_tasks = 0; prefix_tests = 0;
      prefix_env_misses = 0; prefix_summary_builds = 0; bucket_hits = 0;
      bucket_misses = 0; prefix_done = 0;
    }
  in
  let attempted = ref 0 and completed = ref 0 in
  (* One op at site [i]: focus, edit + refresh, undo + refresh. *)
  let op ~traced i =
    incr attempted;
    let site, cls =
      if i mod 2 = 0 then (main, "main")
      else (leaf_names.(Random.State.int rng (Array.length leaf_names)), "leaf")
    in
    let (), focus_s =
      Meas.timed (fun () ->
          Meas.layer "core.focus" (fun () ->
              ignore (ok_or "focus" (Session.focus sess site))))
    in
    let u = find_unit (Session.program sess) site in
    match first_assign u with
    | None -> Meas.fail ("flagship: no assignment in " ^ site)
    | Some s ->
      Hashtbl.replace edited site ();
      let text = Pretty.stmt_to_string s ^ " + 1" in
      let st0 = Session.engine_stats sess in
      (* each timed step starts on a finished major cycle, so it pays
         for collecting its own allocation, not the debt of earlier
         steps *)
      Gc.major ();
      let ok_edit, edit_s =
        Meas.timed (fun () ->
            Meas.layer "op.edit" (fun () ->
                let ok = ok_or "edit" (Session.edit_stmt sess s.Ast.sid text) in
                ignore (Session.visible_deps sess);
                ok))
      in
      let st1 = Session.engine_stats sess in
      let tasks = if traced then replay sess acc else 0 in
      let st1' = Session.engine_stats sess in
      Gc.major ();
      let ok_undo, undo_s =
        Meas.timed (fun () ->
            Meas.layer "op.undo" (fun () ->
                let ok = ok_or "undo" (Session.undo sess) in
                ignore (Session.visible_deps sess);
                ok))
      in
      let st2 = Session.engine_stats sess in
      if ok_edit && ok_undo then begin
        incr completed;
        let phase = if traced then "traced." else "" in
        Meas.add ops (phase ^ "edit_" ^ cls) (edit_s *. 1000.);
        Meas.add ops (phase ^ "undo_" ^ cls) (undo_s *. 1000.);
        if not traced then begin
          attr ("edit_" ^ cls) edit_s (stats_delta st0 st1);
          attr ("undo_" ^ cls) undo_s (stats_delta st1' st2)
        end
        else begin
          acc.edits <- acc.edits + 1;
          acc.focus <- focus_s :: acc.focus;
          attr ("traced.edit_" ^ cls) edit_s (stats_delta st0 st1);
          acc.bucket_hits <-
            acc.bucket_hits + st1.Engine.ddg_bucket_hits - st0.Engine.ddg_bucket_hits;
          acc.bucket_misses <-
            acc.bucket_misses + st1.Engine.ddg_bucket_misses
            - st0.Engine.ddg_bucket_misses;
          (* the first main and first leaf edit of a run are the same
             for a given seed: their counts must repeat exactly *)
          if acc.prefix_done < 2 then begin
            acc.prefix_done <- acc.prefix_done + 1;
            acc.prefix_tasks <- acc.prefix_tasks + tasks;
            acc.prefix_tests <-
              acc.prefix_tests + st1.Engine.tests_run - st0.Engine.tests_run;
            acc.prefix_env_misses <-
              acc.prefix_env_misses + st1.Engine.env_misses - st0.Engine.env_misses;
            acc.prefix_summary_builds <-
              acc.prefix_summary_builds + st1.Engine.summary_builds
              - st0.Engine.summary_builds
          end
        end
      end
  in
  (* the engine keeps every edited program's summary, so the heap
     grows with the ops a run fits in; its high-water mark is read
     after a fixed number of ops, where it does not depend on speed *)
  let heap = ref nan in
  let loop ~traced ~budget ~min_ops start =
    let t0 = Meas.now_s () in
    let i = ref start in
    while !i - start < min_ops || Meas.now_s () -. t0 < budget do
      op ~traced !i;
      incr i;
      if !i = heap_after_ops then heap := Meas.heap_mb ()
    done;
    (!i, Meas.now_s () -. t0)
  in
  let wall =
    match telemetry with
    | None ->
      snd (loop ~traced:false ~budget:seconds ~min_ops:heap_after_ops 0)
    | Some sink ->
      (* traced half first, so its fixed prefix starts from the
         freshly loaded state; then the untraced half for the overhead
         ratio *)
      Telemetry.set_recording sink true;
      let i, _ = loop ~traced:true ~budget:(seconds /. 2.) ~min_ops:heap_after_ops 0 in
      Telemetry.set_recording sink false;
      snd (loop ~traced:false ~budget:(seconds /. 2.) ~min_ops:2 i)
  in
  (* oracle: every edited unit, back at the loaded program, must be
     served exactly as a from-scratch build computes it *)
  let prog = Session.program sess in
  let summary = Interproc.Summary.analyze prog in
  Hashtbl.iter
    (fun name () ->
      if ok_or "focus" (Session.focus sess name) then
        let env =
          Interproc.Summary.env_for ~config:(Session.config sess)
            ~asserts:(Session.assertions sess) summary (find_unit prog name)
        in
        Meas.check
          ("flagship: engine graph of " ^ name ^ " differs from Ddg.compute")
          (Ddg.equal (Session.ddg sess) (Ddg.compute env)))
    edited;
  let heap = !heap in
  let med f = Meas.median (List.map f runs) in
  let setup_s = med (fun r -> r.gen_s +. r.load_s) in
  let load_s = med (fun r -> r.load_s) in
  let cls c = Meas.median (Meas.samples ops c) in
  let untraced = Meas.series () in
  List.iter
    (fun c ->
      if not (String.length c > 7 && String.sub c 0 7 = "traced.") then
        List.iter (Meas.add untraced c) (Meas.samples ops c))
    (Meas.classes ops);
  let undo_all = Meas.samples ops "undo_main" @ Meas.samples ops "undo_leaf" in
  let e2e =
    [
      ("setup_s", setup_s, "s");
      ("op_ms.geomean", Meas.class_geomean untraced, "ms");
      ("ops_per_s", float_of_int (List.length (Meas.samples ops "edit_main")
                                  + List.length (Meas.samples ops "edit_leaf"))
                    /. wall, "1/s");
      ("first_result_ms.p50", load_s *. 1000., "ms");
      ("peak_heap_mb", heap, "MB");
    ]
  in
  let figures =
    [
      ("setup_s", setup_s, "s");
      ("load_s", load_s, "s");
      ("edit_main_ms.p50", cls "edit_main", "ms");
      ("edit_leaf_ms.p50", cls "edit_leaf", "ms");
      ("undo_ms.p50", Meas.median undo_all, "ms");
      ("peak_heap_mb", heap, "MB");
    ]
  in
  let attrib_lines =
    Hashtbl.fold (fun k v l -> (k, v) :: l) attrib []
    |> List.sort compare
    |> List.concat_map (fun (cls, a) ->
           let n = float_of_int a.a_n in
           let ms x = x /. n *. 1000. in
           let other = a.a_wall -. a.a_summary -. a.a_env -. a.a_ddg in
           [
             Printf.sprintf "attribution %s (mean of %d, ms): wall %.3f" cls a.a_n
               (ms a.a_wall);
             Printf.sprintf "  engine.summary %10.3f" (ms a.a_summary);
             Printf.sprintf "  engine.env     %10.3f" (ms a.a_env);
             Printf.sprintf "  engine.ddg     %10.3f" (ms a.a_ddg);
             Printf.sprintf "  engine.other   %10.3f" (ms other);
           ])
  in
  let layer_metrics =
    match telemetry with
    | None -> []
    | Some _ ->
      let traced_edits =
        List.filter_map
          (fun c -> Hashtbl.find_opt attrib c)
          [ "traced.edit_main"; "traced.edit_leaf" ]
      in
      let tot f = List.fold_left (fun s a -> s +. f a) 0. traced_edits in
      let n = float_of_int (max 1 acc.edits) in
      let per x = x /. n *. 1000. in
      let wall_ms = per (tot (fun a -> a.a_wall)) in
      let s = per (tot (fun a -> a.a_summary))
      and e = per (tot (fun a -> a.a_env))
      and d = per (tot (fun a -> a.a_ddg)) in
      let ms l = Meas.mean l *. 1000. in
      let traced_gm =
        Meas.geomean
          (List.map cls [ "traced.edit_main"; "traced.edit_leaf";
                          "traced.undo_main"; "traced.undo_leaf" ])
      in
      [
        ("fortran.parse_ms", Meas.median (List.map (fun r -> r.parse_s) runs) *. 1000.);
        ("interproc.summary_ms", ms acc.replay_summary);
        ("dependence.env_ms", ms acc.replay_env);
        ("ddg.plan_ms", ms acc.plan);
        ("ddg.test_ms", ms acc.test);
        ("ddg.assemble_ms", ms acc.assemble);
        ("ddg.tasks", float_of_int acc.prefix_tasks /. 2.);
        ("engine.summary_ms", s);
        ("engine.env_ms", e);
        ("engine.ddg_ms", d);
        ("engine.other_ms", wall_ms -. s -. e -. d);
        ("engine.tests_run", float_of_int acc.prefix_tests /. 2.);
        ("engine.env_misses", float_of_int acc.prefix_env_misses /. 2.);
        ("engine.summary_builds", float_of_int acc.prefix_summary_builds /. 2.);
        ( "engine.bucket_hit_ratio",
          float_of_int acc.bucket_hits
          /. float_of_int (max 1 (acc.bucket_hits + acc.bucket_misses)) );
        ("core.focus_ms", ms acc.focus);
        ("trace_overhead_ratio", traced_gm /. Meas.class_geomean untraced);
      ]
  in
  let detail =
    Printf.sprintf "flagship: %d units, %d lines, %d leaf subroutines, %d setups"
      (List.length prog0.Ast.punits)
      (Oracle.Stress.lines (Pretty.program_to_string prog0))
      (Array.length leaf_names) setups
    :: Printf.sprintf "flagship: gen %.3f s, parse %.3f s (medians); loads [%s] s"
         (med (fun r -> r.gen_s)) (med (fun r -> r.parse_s))
         (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.load_s) runs))
    :: Meas.class_lines ~prefix:"op " ~unit:"ms" ops
    @ attrib_lines
  in
  ( {
      Meas.attempted = !attempted;
      failed = !attempted - !completed;
      metrics = e2e;
      detail;
    },
    figures,
    layer_metrics )
