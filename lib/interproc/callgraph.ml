open Fortran_front

type site = {
  caller : string;
  callee : string;
  call_sid : Ast.stmt_id;
  actuals : Ast.expr list;
}

type t = {
  prog : Ast.program;
  by_name : (string, Ast.program_unit) Hashtbl.t;
  unit_sites : site list list;  (* per unit, in program order *)
  (* the sites and neighbour names of each unit, indexed once here so
     per-unit queries do not rescan every site of the program *)
  sites_in_ : (string, site list) Hashtbl.t;
  sites_to_ : (string, site list) Hashtbl.t;
  callees_ : (string, string list) Hashtbl.t;
  callers_ : (string, string list) Hashtbl.t;
}

let sites_of_unit (u : Ast.program_unit) =
  List.rev
    (Ast.fold_stmts
       (fun acc (s : Ast.stmt) ->
         match s.Ast.node with
         | Ast.Call (callee, actuals) ->
           { caller = u.Ast.uname; callee; call_sid = s.Ast.sid; actuals }
           :: acc
         | _ -> acc)
       [] u.Ast.body)

(* Group [xs] by [key], each group keeping the order of [xs]. *)
let index key xs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun x ->
      let k = key x in
      Hashtbl.replace tbl k
        (x :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    (List.rev xs);
  tbl

let build ?prev (prog : Ast.program) : t =
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (u : Ast.program_unit) -> Hashtbl.replace by_name u.Ast.uname u)
    prog.Ast.punits;
  let unit_sites =
    match prev with
    | Some p when List.compare_lengths p.prog.Ast.punits prog.Ast.punits = 0 ->
      (* a unit value shared with [prev] has the sites found there *)
      List.map2
        (fun u (u', sites) -> if u == u' then sites else sites_of_unit u)
        prog.Ast.punits
        (List.combine p.prog.Ast.punits p.unit_sites)
    | _ -> List.map sites_of_unit prog.Ast.punits
  in
  let all_sites = List.concat unit_sites in
  let sites_in_ = index (fun s -> s.caller) all_sites in
  let sites_to_ = index (fun s -> s.callee) all_sites in
  let names f tbl =
    let out = Hashtbl.create (Hashtbl.length tbl) in
    Hashtbl.iter
      (fun k sites ->
        Hashtbl.replace out k (List.sort_uniq String.compare (List.map f sites)))
      tbl;
    out
  in
  {
    prog;
    by_name;
    unit_sites;
    sites_in_;
    sites_to_;
    callees_ = names (fun s -> s.callee) sites_in_;
    callers_ = names (fun s -> s.caller) sites_to_;
  }

let program t = t.prog
let unit_named t name = Hashtbl.find_opt t.by_name name
let unit_names t = List.map (fun (u : Ast.program_unit) -> u.Ast.uname) t.prog.Ast.punits
let sites t = List.concat t.unit_sites
let find tbl name = Option.value ~default:[] (Hashtbl.find_opt tbl name)
let sites_in t name = find t.sites_in_ name
let sites_to t name = find t.sites_to_ name
let callees_of t name = find t.callees_ name
let callers_of t name = find t.callers_ name

(* Tarjan's algorithm, started from every unit in program order and
   following callees in name order.  A component is emitted once every
   component it calls has been, so the list runs callees-first; on an
   acyclic graph it is exactly the DFS postorder. *)
let sccs t =
  let index = Hashtbl.create 64 and low = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] and next = ref 0 and out = ref [] in
  let rec visit v =
    Hashtbl.replace index v !next;
    Hashtbl.replace low v !next;
    incr next;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if Hashtbl.mem t.by_name w then
          if not (Hashtbl.mem index w) then begin
            visit w;
            Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find low w))
          end
          else if Hashtbl.mem on_stack w then
            Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (callees_of t v);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if String.equal w v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      out := pop [] :: !out
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then visit v) (unit_names t);
  List.rev !out

let bottom_up t = List.concat (sccs t)

let formals_of t name =
  match unit_named t name with
  | Some u -> (
    match u.Ast.kind with
    | Ast.Main -> Some []
    | Ast.Subroutine fs | Ast.Function (_, fs) -> Some fs)
  | None -> None

let dot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph callgraph {\n";
  List.iter
    (fun name -> Buffer.add_string buf (Printf.sprintf "  %S;\n" name))
    (unit_names t);
  List.iter
    (fun s ->
      Buffer.add_string buf (Printf.sprintf "  %S -> %S;\n" s.caller s.callee))
    (sites t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
