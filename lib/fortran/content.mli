(** Content digests: what "the same content" means for every cache key
    and identity digest in Ped.

    A digest depends on content only: equal content gives equal
    digests whatever the heap sharing of the value, the process that
    built it, or the file it was parsed from.  Statement ids are
    content (analysis results refer to them); source locations are
    not (no analysis reads them), so a unit re-parsed from another
    path or shifted by a comment line keys like the original. *)

type t = Digest.t

(** MD5 of the value marshalled without sharing.  The value must be
    pure data: no closures, no cycles. *)
val value : 'a -> t

(** The digest of an ordered list of digests. *)
val combine : t list -> t

val to_hex : t -> string

(** A statement: its id, label and node, with the digests of its
    nested statements in place of its nested bodies.  Not memoised. *)
val stmt : Ast.stmt -> t

(** A unit: its header, declarations and top-level statement digests.
    Memoised by physical identity of the unit value and safe to call
    from any domain. *)
val unit : Ast.program_unit -> t

(** The digest of the program's ordered unit digests. *)
val program : Ast.program -> t
