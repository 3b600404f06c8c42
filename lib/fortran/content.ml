type t = Digest.t

(* Without sharing: a value that reuses parts of another must key
   exactly like one built afresh.  Everything hashed is pure acyclic
   data (no closures), so the expansion terminates. *)
let value v = Digest.string (Marshal.to_string v [ Marshal.No_sharing ])

(* Digests have a fixed length, so plain concatenation is unambiguous. *)
let combine ds = Digest.string (String.concat "" ds)

let to_hex = Digest.to_hex

(* A statement's id, label, and node with nested bodies emptied, with
   the digests of each nested block's statements in their place.
   [loc] is left out: no analysis reads it. *)
let rec stmt (s : Ast.stmt) : t =
  let node, blocks =
    match s.Ast.node with
    | Ast.Do (h, body) -> (Ast.Do (h, []), [ body ])
    | Ast.If (branches, els) ->
      ( Ast.If (List.map (fun (c, _) -> (c, [])) branches, []),
        List.map snd branches @ [ els ] )
    | node -> (node, [])
  in
  value (s.Ast.sid, s.Ast.label, node, List.map (List.map stmt) blocks)

(* Weak, physically keyed memo: an edit rebuilds only the unit it
   touched and shares every other unit value with the previous
   program, so after the first digest of a program each later one
   costs a table probe per untouched unit.  The structural hash picks
   the bucket; physical equality decides the hit, so a value is never
   confused with an equal-content copy (which digests equally anyway).
   Entries die with their unit. *)
module Memo = Ephemeron.K1.Make (struct
  type t = Ast.program_unit

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let memo = Memo.create 1024
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let unit (u : Ast.program_unit) : t =
  match locked (fun () -> Memo.find_opt memo u) with
  | Some d -> d
  | None ->
    let d =
      value
        ( u.Ast.uname, u.Ast.kind, u.Ast.decls, u.Ast.implicit_none,
          u.Ast.implicits, List.map stmt u.Ast.body )
    in
    locked (fun () -> Memo.replace memo u d);
    d

let program (p : Ast.program) : t = combine (List.map unit p.Ast.punits)
