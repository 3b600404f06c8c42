(* Engine cache correctness and hit/miss accounting.

   The load-bearing property: whatever mix of edits, undos, redos,
   refocuses and assertions a session has absorbed, the engine-served
   dependence graph is structurally identical to a from-scratch
   analysis of the session's current program and assertions.  The
   graph (deps + statistics) is pure data, so polymorphic equality is
   the oracle; environments hold closures and are compared only
   through the graphs they produce. *)

open Fortran_front
open Dependence
open Util

let load ?(caching = true) name =
  let w = Option.get (Workloads.by_name name) in
  (w, Ped.Session.load ~caching (Workloads.program w)
        ~unit_name:(Workloads.main_unit w))

(* The unit with every repeated subexpression physically shared. *)
let hash_cons (u : Ast.program_unit) : Ast.program_unit =
  let seen = Hashtbl.create 64 in
  let rec hc (e : Ast.expr) =
    let e =
      match e with
      | Ast.Index (n, es) -> Ast.Index (n, List.map hc es)
      | Ast.Bin (op, a, b) -> Ast.Bin (op, hc a, hc b)
      | Ast.Un (op, a) -> Ast.Un (op, hc a)
      | e -> e
    in
    match Hashtbl.find_opt seen e with
    | Some e' -> e'
    | None ->
      Hashtbl.add seen e e;
      e
  in
  let node : Ast.stmt_node -> Ast.stmt_node = function
    | Ast.Assign (l, r) -> Ast.Assign (hc l, hc r)
    | Ast.If (bs, els) -> Ast.If (List.map (fun (c, b) -> (hc c, b)) bs, els)
    | Ast.Do (h, b) ->
      Ast.Do
        ( { h with Ast.lo = hc h.Ast.lo; hi = hc h.Ast.hi;
            step = Option.map hc h.Ast.step },
          b )
    | Ast.Call (n, args) -> Ast.Call (n, List.map hc args)
    | Ast.Print es -> Ast.Print (List.map hc es)
    | n -> n
  in
  {
    u with
    Ast.decls =
      List.map
        (fun (d : Ast.decl) ->
          { d with Ast.dims = List.map (fun (lo, hi) -> (hc lo, hc hi)) d.Ast.dims })
        u.Ast.decls;
    body = Ast.map_stmts (fun s -> { s with Ast.node = node s.Ast.node }) u.Ast.body;
  }

(* One-change variants of a unit: a statement's id, label or
   expression (the last statement of the last DO body, else the last
   statement), and a declaration. *)
let mutants (u : Ast.program_unit) =
  let last_of = Ast.fold_stmts (fun _ s -> Some s.Ast.sid) in
  let last =
    Ast.fold_stmts
      (fun acc s ->
        match s.Ast.node with Ast.Do (_, b) -> last_of acc b | _ -> acc)
      (last_of None u.Ast.body) u.Ast.body
  in
  let at f =
    {
      u with
      Ast.body =
        Ast.map_stmts
          (fun s -> if Some s.Ast.sid = last then f s else s)
          u.Ast.body;
    }
  in
  let expr (s : Ast.stmt) =
    match s.Ast.node with
    | Ast.Assign (l, r) -> { s with Ast.node = Ast.Assign (l, Ast.add r (Ast.int_ 1)) }
    | _ -> { s with Ast.node = Ast.Print [ Ast.Str "changed" ] }
  in
  [
    ("sid", at (fun s -> { s with Ast.sid = s.Ast.sid + 100_000 }));
    ("label", at (fun s -> { s with Ast.label = Some 99_999 }));
    ("expression", expr |> at);
    ( "decl",
      {
        u with
        Ast.decls =
          { Ast.dname = "ZZKEY"; dtyp = Ast.Tinteger; dims = []; init = None;
            data_init = None; common_block = None }
          :: u.Ast.decls;
      } );
  ]

let focus_unit_of sess =
  let name = Ped.Session.unit_name sess in
  List.find
    (fun (u : Ast.program_unit) -> String.equal u.Ast.uname name)
    (Ped.Session.program sess).Ast.punits

(* From-scratch graph of the session's current program + assertions. *)
let scratch_ddg sess =
  let u = focus_unit_of sess in
  let env =
    match Ped.Session.interproc sess with
    | Some _ ->
      let summary = Interproc.Summary.analyze (Ped.Session.program sess) in
      Interproc.Summary.env_for ~config:(Ped.Session.config sess)
        ~asserts:(Ped.Session.assertions sess) summary u
    | None ->
      Depenv.make ~config:(Ped.Session.config sess)
        ~asserts:(Ped.Session.assertions sess) u
  in
  Ddg.compute env

let check_scratch what sess =
  check_bool (what ^ ": engine ddg = from-scratch ddg") true
    (Ped.Session.ddg sess = scratch_ddg sess)

let first_assign sess =
  Ast.fold_stmts
    (fun acc (s : Ast.stmt) ->
      match (acc, s.Ast.node) with
      | None, Ast.Assign _ -> Some s
      | _ -> acc)
    None (focus_unit_of sess).Ast.body

let ok_exn what = function Ok _ -> () | Error e -> failwith (what ^ ": " ^ e)

(* Re-submit a statement's own pretty-printed text: semantically the
   identity edit, but it re-parses to fresh statement ids — the
   canonical "user retyped the line" invalidation. *)
let identity_edit sess =
  match first_assign sess with
  | None -> failwith "workload has no assignment statement"
  | Some s ->
    ok_exn "edit"
      (Ped.Session.edit_stmt sess s.Ast.sid (Pretty.stmt_to_string s))

(* --- correctness across every workload ---------------------------- *)

let burst_case (w : Workloads.t) =
  case (w.Workloads.name ^ ": incremental = from-scratch through a burst")
    (fun () ->
      let _, sess = load w.Workloads.name in
      check_scratch "load" sess;
      List.iter
        (fun cmd -> ignore (Ped.Command.run sess cmd))
        w.Workloads.assertion_script;
      check_scratch "asserts" sess;
      identity_edit sess;
      check_scratch "edit" sess;
      ok_exn "undo" (Ped.Session.undo sess);
      check_scratch "undo" sess;
      ok_exn "redo" (Ped.Session.redo sess);
      check_scratch "redo" sess)

(* --- hit/miss accounting ------------------------------------------ *)

let delta (a : Engine.stats) (b : Engine.stats) f = f b - f a

let suite =
  List.map burst_case Workloads.all
  @ [
      case "stats: clean refresh is a pure cache hit" (fun () ->
          let _, sess = load "matmul" in
          let s0 = Ped.Session.engine_stats sess in
          Ped.Session.reanalyze sess;
          let s1 = Ped.Session.engine_stats sess in
          check_int "env hit" 1 (delta s0 s1 (fun s -> s.Engine.env_hits));
          check_int "no miss" 0 (delta s0 s1 (fun s -> s.Engine.env_misses));
          check_int "no tests" 0 (delta s0 s1 (fun s -> s.Engine.tests_run)));
      case "stats: edit invalidates but reuses untouched buckets" (fun () ->
          let _, sess = load "jacobi" in
          (* a fresh session's initial analysis = the full cost *)
          let full = (Ped.Session.engine_stats sess).Engine.tests_run in
          let s0 = Ped.Session.engine_stats sess in
          identity_edit sess;
          let s1 = Ped.Session.engine_stats sess in
          check_bool "invalidated" true
            (delta s0 s1 (fun s -> s.Engine.invalidations) >= 1);
          check_bool "recomputed" true
            (delta s0 s1 (fun s -> s.Engine.env_misses) >= 1);
          check_bool "some buckets reused" true
            (delta s0 s1 (fun s -> s.Engine.ddg_bucket_hits) >= 1);
          let retested = delta s0 s1 (fun s -> s.Engine.tests_run) in
          check_bool "retested strictly less than full" true
            (retested < full && retested >= 0));
      case "stats: undo and redo run no dependence tests" (fun () ->
          let _, sess = load "jacobi" in
          identity_edit sess;
          let s0 = Ped.Session.engine_stats sess in
          ok_exn "undo" (Ped.Session.undo sess);
          let s1 = Ped.Session.engine_stats sess in
          check_int "undo: no tests" 0
            (delta s0 s1 (fun s -> s.Engine.tests_run));
          check_bool "undo: summary from cache" true
            (delta s0 s1 (fun s -> s.Engine.summary_hits) >= 1);
          check_int "undo: no summary rebuild" 0
            (delta s0 s1 (fun s -> s.Engine.summary_builds));
          ok_exn "redo" (Ped.Session.redo sess);
          let s2 = Ped.Session.engine_stats sess in
          check_int "redo: no tests" 0
            (delta s1 s2 (fun s -> s.Engine.tests_run)));
      case "stats: refocus back to a cached unit is a hit" (fun () ->
          let _, sess = load "callnest" in
          ok_exn "focus" (Ped.Session.focus sess "ROWOP");
          let s0 = Ped.Session.engine_stats sess in
          ok_exn "refocus" (Ped.Session.focus sess "CALLNE");
          let s1 = Ped.Session.engine_stats sess in
          check_int "env hit" 1 (delta s0 s1 (fun s -> s.Engine.env_hits));
          check_int "no tests" 0 (delta s0 s1 (fun s -> s.Engine.tests_run));
          check_scratch "refocus" sess);
      case "stats: assertion change invalidates and stays correct" (fun () ->
          let _, sess = load "symbounds" in
          let s0 = Ped.Session.engine_stats sess in
          Ped.Session.assert_value sess "M" 64;
          let s1 = Ped.Session.engine_stats sess in
          check_bool "invalidated" true
            (delta s0 s1 (fun s -> s.Engine.invalidations) >= 1);
          check_scratch "assert" sess);
      case "stats: undo and redo of an edit hit every cache" (fun () ->
          let _, sess = load "jacobi" in
          identity_edit sess;
          let s0 = Ped.Session.engine_stats sess in
          ok_exn "undo" (Ped.Session.undo sess);
          let s1 = Ped.Session.engine_stats sess in
          check_int "undo: no env miss" 0
            (delta s0 s1 (fun s -> s.Engine.env_misses));
          check_int "undo: no summary build" 0
            (delta s0 s1 (fun s -> s.Engine.summary_builds));
          check_scratch "undo" sess;
          ok_exn "redo" (Ped.Session.redo sess);
          let s2 = Ped.Session.engine_stats sess in
          check_int "redo: no env miss" 0
            (delta s1 s2 (fun s -> s.Engine.env_misses));
          check_int "redo: no summary build" 0
            (delta s1 s2 (fun s -> s.Engine.summary_builds));
          check_scratch "redo" sess);
      case "stats: a leaf edit recomputes one summary unit" (fun () ->
          let program =
            match Workloads.stress "stress:many-units@smoke" with
            | Ok p -> p
            | Error e -> failwith e
          in
          let calls_nothing (u : Ast.program_unit) =
            Ast.fold_stmts
              (fun acc (s : Ast.stmt) ->
                acc && match s.Ast.node with Ast.Call _ -> false | _ -> true)
              true u.Ast.body
          in
          let leaf =
            List.find
              (fun (u : Ast.program_unit) ->
                u.Ast.kind <> Ast.Main && calls_nothing u)
              program.Ast.punits
          in
          let sink = Telemetry.make ~record_spans:true () in
          let sess =
            Ped.Session.load ~telemetry:sink program ~unit_name:leaf.Ast.uname
          in
          let s0 = Ped.Session.engine_stats sess in
          ignore (Telemetry.drain_spans sink);
          (match first_assign sess with
          | None -> failwith "leaf has no assignment"
          | Some s ->
            ok_exn "edit"
              (Ped.Session.edit_stmt sess s.Ast.sid
                 (Pretty.stmt_to_string s ^ " + 1")));
          let s1 = Ped.Session.engine_stats sess in
          check_int "summary built" 1
            (delta s0 s1 (fun s -> s.Engine.summary_builds));
          check_int "summary units" 1
            (delta s0 s1 (fun s -> s.Engine.summary_units));
          check_bool "engine.summary span carries the count" true
            (List.exists
               (fun (r : Telemetry.span_record) ->
                 r.Telemetry.sp_name = "engine.summary"
                 && List.assoc_opt "summary_units" r.Telemetry.sp_args = Some "1")
               (Telemetry.drain_spans sink));
          check_scratch "leaf edit" sess);
      case "fingerprint: keys survive deep copies and incremental summaries"
        (fun () ->
          (* a deep copy that also drops every sharing *)
          let copy v =
            Marshal.from_string (Marshal.to_string v [ Marshal.No_sharing ]) 0
          in
          (* one string shared by two assertions: a copy holds two *)
          let n = "N" in
          let asserts =
            {
              Depenv.no_assertions with
              Depenv.asserted_values = [ (n, 8) ];
              asserted_ranges = [ (n, 1, 8) ];
            }
          in
          let key s u asserts =
            Engine.Fingerprint.analysis_key ~config:Depenv.full_config ~asserts
              ~facet:(Some (Engine.Fingerprint.interproc_facet s u)) u
          in
          List.iter
            (fun (w : Workloads.t) ->
              let p = Workloads.program w in
              let summary = Interproc.Summary.analyze p in
              let summary' : Interproc.Summary.t = copy summary in
              (* the same program reached by an update from a version
                 with an edited main unit, reusing the other units' parts *)
              let edited =
                {
                  Ast.punits =
                    List.map
                      (fun (u : Ast.program_unit) ->
                        if u.Ast.kind <> Ast.Main then u
                        else
                          { u with Ast.body = u.Ast.body @ [ Ast.mk Ast.Continue ] })
                      p.Ast.punits;
                }
              in
              let updated =
                Interproc.Summary.update
                  ~prev:(Some (Interproc.Summary.analyze edited))
                  p
              in
              check_bool (w.Workloads.name ^ ": program key") true
                (Engine.Fingerprint.program p
                = Engine.Fingerprint.program (copy p));
              List.iter
                (fun (u : Ast.program_unit) ->
                  let u' : Ast.program_unit = copy u in
                  let what = w.Workloads.name ^ "/" ^ u.Ast.uname in
                  let f = Engine.Fingerprint.interproc_facet summary u in
                  check_bool (what ^ ": facet of copies") true
                    (f = Engine.Fingerprint.interproc_facet summary' u');
                  check_bool (what ^ ": facet of update") true
                    (f = Engine.Fingerprint.interproc_facet updated u);
                  check_bool (what ^ ": analysis key of copies") true
                    (key summary u asserts = key summary' u' (copy asserts)))
                p.Ast.punits;
              (* the same source under another path, one line lower *)
              let p = Ast.renumber_program p in
              let relocated =
                Ast.renumber_program
                  (Parser.parse_program ~file:"elsewhere/moved.f"
                     ("C     a new first line\n" ^ w.Workloads.source))
              in
              let summary = Interproc.Summary.analyze p in
              let summary_r = Interproc.Summary.analyze relocated in
              check_bool (w.Workloads.name ^ ": program key of relocated") true
                (Engine.Fingerprint.program p
                = Engine.Fingerprint.program relocated);
              let words v = Obj.reachable_words (Obj.repr v) in
              check_bool (w.Workloads.name ^ ": hash-consing shares") true
                (words { Ast.punits = List.map hash_cons p.Ast.punits }
                < words (copy p));
              List.iter2
                (fun (u : Ast.program_unit) (r : Ast.program_unit) ->
                  let what = w.Workloads.name ^ "/" ^ u.Ast.uname in
                  check_bool (what ^ ": analysis key of relocated") true
                    (key summary u asserts = key summary_r r asserts);
                  check_bool (what ^ ": analysis key of shared") true
                    (key summary u asserts = key summary (hash_cons u) asserts);
                  List.iter
                    (fun (change, u2) ->
                      check_bool (what ^ ": " ^ change ^ " changes the key")
                        false
                        (Engine.Fingerprint.analysis_key
                           ~config:Depenv.full_config ~asserts ~facet:None u
                        = Engine.Fingerprint.analysis_key
                            ~config:Depenv.full_config ~asserts ~facet:None u2))
                    (mutants u))
                p.Ast.punits relocated.Ast.punits)
            Workloads.all);
      case "baseline mode recomputes everything" (fun () ->
          let _, sess = load ~caching:false "matmul" in
          let full = (Ped.Session.engine_stats sess).Engine.tests_run in
          check_bool "initial analysis ran tests" true (full > 0);
          let s0 = Ped.Session.engine_stats sess in
          Ped.Session.reanalyze sess;
          let s1 = Ped.Session.engine_stats sess in
          check_int "refresh pays full price again" full
            (delta s0 s1 (fun s -> s.Engine.tests_run));
          check_scratch "baseline" sess);
    ]
