(** The one domain-sharded store behind every observe accumulator: the
    only place that defines the shard count, the [Domain.self]-masked
    {!slot}, the registry lock and merge-on-read.  {!Metrics} and
    {!Attribution} are views over its entries; {!Coverage} and {!Trace}
    take their per-domain locked shards from {!locked}.

    An entry is a row of integer columns with one copy per shard: a
    write lands on the calling domain's copy and a read merges the
    copies.  Addition commutes, so merged totals of deterministic work
    are identical for every [--jobs] count. *)

(** The calling domain's shard. *)
val slot : unit -> int

(** Counters have one column, {!count}.  Histograms have {!count},
    {!sum}, {!max}, then {!buckets} bucket columns from {!bucket0}
    (sample [v > 0] lands in bucket [i] when [2^(i-1) <= v < 2^i];
    bucket 0 holds the rest).  Cost centers have {!count}, {!units} and
    {!wall}. *)
type kind = Counter | Histogram | Center

val count : int
val sum : int
val max : int
val bucket0 : int
val buckets : int
val units : int
val wall : int

type entry

(** Find-or-create the entry of [(name, kind)].  A center's [units]
    labels its charged-unit column (default none) and [volatile_units]
    puts that column in the wall-clock class; the first registration
    fixes both. *)
val register : ?units:string -> ?volatile_units:bool -> kind -> string -> entry

val name : entry -> string
val kind : entry -> kind
val units_label : entry -> string
val volatile_units : entry -> bool

(** [add_in e ~slot col n] adds [n] to column [col] of shard [slot]
    (the caller's {!slot}). *)
val add_in : entry -> slot:int -> int -> int -> unit

(** Record one histogram sample on the calling domain's shard. *)
val sample : entry -> int -> unit

(** Merged columns: sums across shards, except a histogram's {!max}. *)
val read : entry -> int array

(** The entries whose kind passes with their merged columns, sorted by
    name. *)
val snapshot : (kind -> bool) -> (entry * int array) list

(** The one diff of every view: [diff before after] is [after - before]
    per name, column by column, dropping all-zero rows; names absent
    from [before] count as zero there. *)
val diff :
  (string * int array) list -> (string * int array) list -> (string * int array) list

(** Zero the entries whose kind passes (the entries are kept). *)
val reset : (kind -> bool) -> unit

(** The one projection rule: [volatile kind ~volatile_units col] holds
    when column [col] is scheduling-dependent, and so left out of every
    jobs-invariant projection.  A center's {!wall} always is, its
    {!units} when it declared [volatile_units]; counter and histogram
    columns never are. *)
val volatile : kind -> volatile_units:bool -> int -> bool

(** One value per shard, each behind its own mutex, for accumulators
    that are not integer columns (coverage sets, trace buffers). *)
type 'a locked

val locked : (unit -> 'a) -> 'a locked

(** Run [f] on the calling domain's value under its shard's lock. *)
val with_local : 'a locked -> ('a -> 'b) -> 'b

(** Fold over the shards' values in shard order, each under its lock. *)
val fold : 'a locked -> ('acc -> 'a -> 'acc) -> 'acc -> 'acc

val iter : 'a locked -> ('a -> unit) -> unit
