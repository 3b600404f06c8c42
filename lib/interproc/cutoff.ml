open Fortran_front

type stamp = (string, Content.t) Hashtbl.t

type ctx = {
  cg : Callgraph.t;
  sccs : string list list;
  prev_cg : Callgraph.t option;
  edited : (string, unit) Hashtbl.t;
  iface_changed : (string, unit) Hashtbl.t;
  callee_dirty : (string, unit) Hashtbl.t;
  tables : (string, Ast.program_unit * Symbol.table) Hashtbl.t;
  recomputed : (string, unit) Hashtbl.t;
}

let stamp (prog : Ast.program) : stamp =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (u : Ast.program_unit) ->
      let d = Content.unit u in
      (* a repeated unit name: the name stands for all its units *)
      Hashtbl.replace tbl u.Ast.uname
        (match Hashtbl.find_opt tbl u.Ast.uname with
        | Some d0 -> Content.combine [ d0; d ]
        | None -> d))
    prog.Ast.punits;
  tbl

let make cg (st : stamp) ~(prev : (Callgraph.t * stamp) option) : ctx =
  let edited = Hashtbl.create 16 and callee_dirty = Hashtbl.create 16 in
  (* a unit's interface as others read it: whether it exists, and its
     formals; only an edited unit can change it *)
  let iface_changed = Hashtbl.create 16 in
  (match prev with
  | None -> ()
  | Some (prev_cg, prev_st) ->
    let edit name =
      if not (Hashtbl.mem edited name) then begin
        Hashtbl.replace edited name ();
        if Callgraph.formals_of prev_cg name <> Callgraph.formals_of cg name
        then Hashtbl.replace iface_changed name ();
        Hashtbl.replace callee_dirty name ();
        (* the sites it held, before and after, are its callees' inputs *)
        List.iter
          (fun c -> Hashtbl.replace callee_dirty c ())
          (Callgraph.callees_of cg name @ Callgraph.callees_of prev_cg name)
      end
    in
    Hashtbl.iter
      (fun name d ->
        match Hashtbl.find_opt prev_st name with
        | Some d' when Digest.equal d d' -> ()
        | _ -> edit name)
      st;
    Hashtbl.iter (fun name _ -> if not (Hashtbl.mem st name) then edit name) prev_st);
  {
    cg;
    sccs = Callgraph.sccs cg;
    prev_cg = Option.map fst prev;
    edited;
    iface_changed;
    callee_dirty;
    tables = Hashtbl.create 16;
    recomputed = Hashtbl.create 16;
  }

let scratch cg = make cg (Hashtbl.create 1) ~prev:None

let callgraph c = c.cg

let table c (u : Ast.program_unit) =
  match Hashtbl.find_opt c.tables u.Ast.uname with
  | Some (u', tbl) when u' == u -> tbl
  | _ ->
    let tbl = Symbol.build u in
    Hashtbl.replace c.tables u.Ast.uname (u, tbl);
    tbl

let recomputed c = Hashtbl.length c.recomputed

(* The one solver behind all five analyses.  Components are visited in
   [order]; a unit's result depends on its own content and on the
   results of its [deps] (callees bottom-up, callers top-down).  A
   component keeps its results from [prev] unless a member is [dirty]
   or the result or interface of a dependency outside it changed; a
   recomputed component reports a change only for members whose result
   differs from [prev] (the cut-off).  Recursive components iterate,
   from [seed], until stable or for [max_rounds]. *)
let solve c ~order ~deps ~dirty ~prev ~equal ~seed ~max_rounds compute =
  let res = Hashtbl.create 16 in
  let changed = Hashtbl.create 16 in
  let lookup = Hashtbl.find_opt res in
  let unit_of n = Callgraph.unit_named c.cg n in
  let solve_scc scc =
    let outside_changed n =
      List.exists
        (fun d ->
          (not (List.mem d scc))
          && (Hashtbl.mem changed d || Hashtbl.mem c.iface_changed d))
        (deps n)
    in
    let reused =
      match prev with
      | Some p
        when not (List.exists (fun n -> dirty n || outside_changed n) scc) ->
        List.for_all
          (fun n ->
            match Hashtbl.find_opt p n with
            | Some r ->
              Hashtbl.replace res n r;
              true
            | None -> false)
          scc
      | _ -> false
    in
    if not reused then begin
      (match scc with
      | [ n ] when not (List.mem n (deps n)) ->
        Option.iter (fun u -> Hashtbl.replace res n (compute ~lookup u)) (unit_of n)
      | _ ->
        List.iter
          (fun n ->
            Hashtbl.remove res n;
            Option.iter
              (fun u -> Option.iter (Hashtbl.replace res n) (seed u))
              (unit_of n))
          scc;
        let again = ref true and rounds = ref 0 in
        while !again && !rounds < max_rounds do
          again := false;
          incr rounds;
          List.iter
            (fun n ->
              Option.iter
                (fun u ->
                  let r = compute ~lookup u in
                  match Hashtbl.find_opt res n with
                  | Some old when equal old r -> ()
                  | _ ->
                    Hashtbl.replace res n r;
                    again := true)
                (unit_of n))
            scc
        done);
      List.iter
        (fun n ->
          Hashtbl.replace c.recomputed n ();
          let same =
            match (Option.bind prev (fun p -> Hashtbl.find_opt p n), lookup n) with
            | Some a, Some b -> equal a b
            | _ -> false
          in
          if not same then Hashtbl.replace changed n ())
        scc
    end
  in
  List.iter solve_scc order;
  res

let bottom_up c ~prev ~equal ?(seed = fun _ -> None) ?(max_rounds = 10)
    compute =
  solve c ~order:c.sccs ~deps:(Callgraph.callees_of c.cg)
    ~dirty:(fun n -> Option.is_none c.prev_cg || Hashtbl.mem c.edited n)
    ~prev ~equal ~seed ~max_rounds compute

let top_down c ~prev ~equal compute =
  solve c
    ~order:(List.rev c.sccs)
    ~deps:(Callgraph.callers_of c.cg)
    ~dirty:(fun n -> Option.is_none c.prev_cg || Hashtbl.mem c.callee_dirty n)
    ~prev ~equal ~seed:(fun _ -> None) ~max_rounds:10 compute
