(** Per-thread TSO store buffer.

    Stores, [clflush], [clwb] and [sfence] enter the buffer in program
    order and leave it subject to the Table-1 reordering constraints:
    FIFO for stores and [clflush], while a [clwb]/[clflushopt] entry may
    overtake stores and [clflush]es to *other* cache lines.  Loads bypass
    the buffer ([Store_buffer.forward]). *)

type entry =
  | Store of Event.store
  | Flush of Event.flush  (** both [clflush] and [clwb] *)
  | Sfence of Event.fence

type t

val create : unit -> t
val is_empty : t -> bool
val length : t -> int

(** Append at the newest end: O(1) amortized, allocating only when the
    underlying ring ({!Ring}) doubles. *)
val push : t -> entry -> unit

(** Entries currently in the buffer, oldest first. *)
val entries : t -> entry list

(** Indices (into [entries]) that may legally leave the buffer next,
    according to Table 1.  Index 0 (the oldest entry) is always
    included when the buffer is nonempty. *)
val evictable : t -> int list

(** [take t i] removes and returns the [i]-th entry; [i] must come from
    [evictable]. *)
val take : t -> int -> entry

(** [forward t ~addr ~size] is the value of the newest buffered store
    that covers the byte range exactly or fully, if any ([Covered]), or
    [Partial] when some buffered store overlaps the range without
    covering it (the real CPU would stall; callers drain the buffer), or
    [Miss]. *)
type forwarding = Covered of Event.store | Partial | Miss

val forward : t -> addr:Addr.t -> size:int -> forwarding
