open Fortran_front

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

let of_unit (u : Ast.program_unit) : Digest.t =
  match locked (fun () -> Memo.find_opt memo u) with
  | Some d -> d
  | None ->
    let d = Digest.string (Marshal.to_string u [ Marshal.No_sharing ]) in
    locked (fun () -> Memo.replace memo u d);
    d
