(** Program storage: typed, unboxed, shared-memory buffers.

    Every variable the evaluator ({!Eval}) executes lives in a flat
    buffer matching its declared Fortran type: [floatarray] for
    REAL/DOUBLE, [int array] for INTEGER, [bool array] for LOGICAL.
    Frames view that storage through {!slot}s: a scalar is a one-element
    view and an array element is an offset view, which gives Fortran's
    by-reference argument passing (including passing [A(5)] as the start
    of an array and reshaping across a call boundary) for free.

    Element reads and writes are single word-sized memory operations,
    so concurrent domains may touch {e distinct} elements of the same
    buffer without copying, locking, or tearing (the OCaml 5 memory
    model guarantees no out-of-thin-air values for such races).

    Each buffer also carries optional {e shadow memory} for the
    runtime's dynamic dependence validator: per-element
    last-writer/last-reader iteration stamps, epoch-tagged so
    instrumented loops need no O(n) clearing between runs, plus an
    exclusion tag for storage the current parallel loop privatizes. *)

open Fortran_front

type data =
  | F of floatarray
  | I of int array
  | B of bool array

(** Per-element access stamps, epoch-validated. *)
type shadow = {
  w_ep : int array;  (** epoch of last write, -1 when never *)
  w_it : int array;  (** iteration of last write *)
  r_ep : int array;
  r_it : int array;
}

type buf = {
  data : data;
  mutable shadow : shadow option;  (** allocated on first monitored access *)
  mutable excl_epoch : int;
      (** epoch in which this buffer is excluded from monitoring
          (induction variables, privatized and reduction storage) *)
}

val alloc : Ast.typ -> int -> buf

(** Fresh zeroed buffer with the same element type as an existing
    one. *)
val alloc_like : buf -> int -> buf

val length : buf -> int

(** Read/write one element, converting to/from {!Value.value} at the
    boundary.  Writes convert to the {e buffer's} type (truncation into
    INTEGER storage, promotion into REAL), whatever the declared type
    of the name the write goes through. *)
val get : buf -> int -> Value.value

val set : buf -> int -> Value.value -> unit

val to_float : buf -> int -> float

(** Get-or-allocate the shadow arrays. *)
val shadow_of : buf -> shadow

(** {2 Slots: how frames view storage} *)

type cell = { cbuf : buf; coff : int }

type arr = { abuf : buf; base : int; bounds : (int * int) list }

type slot = Scalar of cell | Arr of arr

val get_cell : cell -> Value.value
val set_cell : cell -> Value.value -> unit

(** [offset arr idxs] — column-major linearization of [idxs] against
    the view's bounds.  Individual dimensions are not range-checked
    (Fortran programs linearize); only the final offset is checked
    against the storage.
    @raise Failure on subscript count mismatch or out-of-bounds *)
val offset : arr -> int list -> int

(** [copy_into dst src] — blit [src]'s elements over [dst] (same
    length, same type expected). *)
val copy_into : buf -> buf -> unit
