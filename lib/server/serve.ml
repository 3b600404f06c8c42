open Fortran_front
open Ped

type t = {
  cache : Cache.t;
  sink : Telemetry.sink;
  history_limit : int;
  runner : Dependence.Ddg.runner option;
  sessions : (string, Session.t) Hashtbl.t;
  mutable order : string list;  (* open order, oldest first *)
}

let create ?telemetry ?cache ?runner ?(history_limit = 1000) () : t =
  (* requests are interleaved on one domain, so one analysis pool can
     serve every session *)
  let sink = match telemetry with Some s -> s | None -> Telemetry.make () in
  let cache =
    match cache with Some c -> c | None -> Cache.create ~telemetry:sink ()
  in
  { cache; sink; history_limit; runner; sessions = Hashtbl.create 8;
    order = [] }

let cache t = t.cache
let telemetry t = t.sink

let sessions t =
  List.filter_map
    (fun id ->
      Option.map (fun s -> (id, Session.unit_name s))
        (Hashtbl.find_opt t.sessions id))
    t.order

let find_session t id = Hashtbl.find_opt t.sessions id

(* Same default-unit rule as Session.load_source: the main program,
   else the first unit. *)
let resolve_unit (program : Ast.program) = function
  | Some n -> Ok n
  | None -> (
    match
      List.find_opt
        (fun (u : Ast.program_unit) -> u.Ast.kind = Ast.Main)
        program.Ast.punits
    with
    | Some u -> Ok u.Ast.uname
    | None -> (
      match program.Ast.punits with
      | u :: _ -> Ok u.Ast.uname
      | [] -> Error "empty program"))

let open_session t ~id ~file ~source ~unit_name =
  if Hashtbl.mem t.sessions id then
    Error (Printf.sprintf "session %s is already open" id)
  else
    match Parser.parse_program_result ~file source with
    | Error e -> Error e
    | Ok program -> (
      (* Canonical statement ids: identical source in two sessions (or
         two processes) now fingerprints identically, so the shared
         cache actually dedups their work. *)
      let program = Ast.renumber_program program in
      match resolve_unit program unit_name with
      | Error e -> Error e
      | Ok unit_name -> (
        match
          Session.load ~sharing:(Cache.sharing t.cache) ?runner:t.runner
            ~history_limit:t.history_limit ~telemetry:t.sink program
            ~unit_name
        with
        | exception Invalid_argument e -> Error e
        | s ->
          Hashtbl.replace t.sessions id s;
          t.order <- t.order @ [ id ];
          Ok s))

let close_session t id =
  if not (Hashtbl.mem t.sessions id) then
    Error (Printf.sprintf "no session %s" id)
  else begin
    Hashtbl.remove t.sessions id;
    t.order <- List.filter (( <> ) id) t.order;
    Ok ()
  end

let read_file file =
  if not (Sys.file_exists file) then
    Error (Printf.sprintf "no such file %s" file)
  else
    match In_channel.with_open_bin file In_channel.input_all with
    | src -> Ok src
    | exception Sys_error e -> Error e

(* Every session-addressed request runs in that session's telemetry
   lane, under a server.request span — this is what keeps concurrent
   sessions apart in a recorded trace.  Latency also lands in a
   per-session histogram (histograms are live even when spans are
   off), which the stats response summarizes as quantiles. *)
let latency_hist t id =
  Telemetry.histogram t.sink ("server.request_ns.session " ^ id)

let in_lane t id verb f =
  Telemetry.with_lane t.sink ("session " ^ id) @@ fun () ->
  let t0 = Telemetry.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.observe (latency_hist t id)
        (Int64.to_int (Int64.sub (Telemetry.now_ns ()) t0)))
    (fun () ->
      Telemetry.span t.sink "server.request"
        ~args:[ ("session", id); ("request", verb) ]
        f)

let latency_report t id =
  let h = latency_hist t id in
  let n = Telemetry.hist_count h in
  if n = 0 then "request latency: no requests yet"
  else
    let q p = float_of_int (Telemetry.hist_quantile h p) /. 1e6 in
    let mx =
      match List.rev (Telemetry.hist_buckets h) with
      | (ub, _) :: _ -> float_of_int ub /. 1e6
      | [] -> 0.0
    in
    Printf.sprintf
      "request latency: p50 %.3fms  p95 %.3fms  max %.3fms  (%d request%s)"
      (q 0.5) (q 0.95) mx n
      (if n = 1 then "" else "s")

let with_session t id f =
  match find_session t id with
  | None -> Error (Printf.sprintf "no session %s" id)
  | Some s -> f s

let handle t (req : Protocol.request) : (string * string list, string) result
    =
  match req with
  | Protocol.Open { rsid; file; unit_name } -> (
    match read_file file with
    | Error e -> Error e
    | Ok source -> (
      match
        in_lane t rsid "open" (fun () ->
            open_session t ~id:rsid ~file ~source ~unit_name)
      with
      | Error e -> Error e
      | Ok s ->
        Ok
          ( rsid,
            [
              Printf.sprintf "opened %s, focus %s; %d session(s)" file
                (Session.unit_name s)
                (Hashtbl.length t.sessions);
            ] )))
  | Protocol.Cmd { rsid; line } ->
    with_session t rsid (fun s ->
        let out = in_lane t rsid "cmd" (fun () -> Command.run s line) in
        Ok (rsid, Protocol.payload_of_text out))
  | Protocol.Stats rsid ->
    with_session t rsid (fun s ->
        Ok
          ( rsid,
            Protocol.payload_of_text
              (Session.engine_report s ^ "\n" ^ latency_report t rsid) ))
  | Protocol.Sessions ->
    Ok
      ( "",
        List.map
          (fun (id, unit_name) -> Printf.sprintf "%s %s" id unit_name)
          (sessions t) )
  | Protocol.Cache_stats -> Ok ("", Protocol.payload_of_text (Cache.report t.cache))
  | Protocol.Close rsid ->
    Result.map
      (fun () -> (rsid, [ Printf.sprintf "closed %s" rsid ]))
      (close_session t rsid)
  | Protocol.Quit -> Ok ("", [ "bye" ])

let serve t ic oc =
  let rec loop () =
    match In_channel.input_line ic with
    | None -> ()
    | Some line when String.trim line = "" -> loop ()
    | Some line -> (
      match Protocol.parse line with
      | Error e ->
        Protocol.respond oc (Error e);
        loop ()
      | Ok Protocol.Quit -> Protocol.respond oc (handle t Protocol.Quit)
      | Ok req ->
        Protocol.respond oc (handle t req);
        loop ())
  in
  loop ()
