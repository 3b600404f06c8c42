(** Domain-safety audit of the analysis stack.

    The batch driver can run jobs on multiple OCaml domains sharing one
    {!Cache}, and the staged analyzer ([Ddg.compute ?runner]) can fan
    one session's dependence-test buckets across a pool.  Whether state
    may be {e shared} across domains is a property of the code, not a
    flag; this module is the reviewed inventory that justifies both
    policies.  Every row is safe as it stands or guarded by a lock or
    an atomic; state that had to stay confined to one domain would
    need the drivers to refuse those configurations again. *)

type safety =
  | Safe      (** usable from any domain concurrently as-is *)
  | Guarded   (** safe because of an explicit lock / atomic *)

type component = { comp : string; safety : safety; notes : string }

(** The reviewed inventory of process-global and cross-session
    mutable state, one row per component. *)
val components : component list

(** The inventory and the policies it supports, as text
    ([ped batch --audit]). *)
val report : unit -> string
