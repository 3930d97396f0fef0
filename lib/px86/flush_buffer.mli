(** Per-thread flush buffer [F_tau] of pending [clwb] operations.

    A [clwb] that has left the store buffer does not yet force a
    write-back: it waits here until the thread executes an [sfence],
    [mfence] or locked RMW, at which point the cache line is guaranteed
    persisted (paper, Figure 8, [Evict_FB]). *)

type t

val create : unit -> t
val is_empty : t -> bool

(** Append at the newest end: O(1) amortized ({!Ring}). *)
val add : t -> Event.flush -> unit

(** [drain t f] removes every pending [clwb] and applies [f] to each,
    oldest first. *)
val drain : t -> (Event.flush -> unit) -> unit

(** Pending entries without removing them, oldest first. *)
val pending : t -> Event.flush list
