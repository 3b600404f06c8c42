(** Content digest of one program unit.

    The MD5 of the unit marshalled without sharing: canonical, so two
    units with equal content have equal digests whatever their heap
    sharing.  Memoised by physical identity of the unit value and safe
    to call from any domain. *)

val of_unit : Fortran_front.Ast.program_unit -> Digest.t
