(** Vector clocks over thread identifiers.

    A clock vector maps each thread id to a logical clock value; absent
    entries are zero.  They order events by happens-before: [leq a b] holds
    when every component of [a] is at most the corresponding component of
    [b].  Yashme uses clock vectors for the consistent-prefix computation
    ([CVpre]), for the per-cache-line write-back lower bound ([lastflush])
    and for the happens-before guard on flush-map updates (paper, section
    6). *)

type t

(** The empty clock vector (all components zero). *)
val empty : t

(** [get cv tid] is the component of [cv] for thread [tid]; 0 if absent. *)
val get : t -> int -> int

(** [set cv tid clk] is [cv] with the component for [tid] replaced by
    [clk].  Raises [Invalid_argument] if [clk < 0] or [tid < 0]. *)
val set : t -> int -> int -> t

(** [tick cv tid] increments the component for [tid] by one. *)
val tick : t -> int -> t

(** [join a b] is the component-wise maximum of [a] and [b]; when one
    side already dominates, that side itself (no allocation). *)
val join : t -> t -> t

(** [leq a b] holds when [a] happens-before-or-equals [b] component-wise. *)
val leq : t -> t -> bool

(** [lt a b] is [leq a b && not (equal a b)]. *)
val lt : t -> t -> bool

(** Structural equality (treats absent components as zero). *)
val equal : t -> t -> bool

(** [concurrent a b] holds when neither [leq a b] nor [leq b a]. *)
val concurrent : t -> t -> bool

(** [of_list assoc] builds a clock vector from [(tid, clock)] pairs. *)
val of_list : (int * int) list -> t

(** [to_list cv] lists the nonzero [(tid, clock)] pairs in increasing
    thread-id order. *)
val to_list : t -> (int * int) list

(** Pretty-printer, e.g. [<0:3, 2:1>]. *)
val pp : Format.formatter -> t -> unit
