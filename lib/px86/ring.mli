(** Growable FIFO ring buffer, oldest element first.

    A power-of-two array with a head index and a length: [push] is O(1)
    amortized and allocates only when the array doubles, [pop]/[get] are
    O(1) and never allocate.  The store and flush buffers sit on the
    simulator's per-instruction path, so neither may allocate per entry.
    Vacated slots are reset to the [dummy] given at creation, so the ring
    never keeps a removed element alive. *)

type 'a t

(** [create dummy] is an empty ring; [dummy] fills unused slots and is
    never returned. *)
val create : 'a -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** Append at the newest end. *)
val push : 'a t -> 'a -> unit

(** [get t i] is the [i]-th element, oldest first. *)
val get : 'a t -> int -> 'a

(** [remove t i] removes and returns the [i]-th element, oldest first,
    closing the gap; O(1) for [i = 0], O(length) otherwise. *)
val remove : 'a t -> int -> 'a

(** Elements, oldest first. *)
val to_list : 'a t -> 'a list
