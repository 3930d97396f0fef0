(** Domain-safe counters and histograms: a view over {!Registry}'s
    [Counter] and [Histogram] entries.

    Cells are sharded by domain id; reads merge the shards.  Because
    addition commutes, merged totals are independent of how work was
    interleaved across domains — counters of deterministic work are
    identical for every [--jobs] count.

    The whole module is disabled by default: every write is a no-op
    behind a single [Atomic.get] branch until {!enable} is called, and
    nothing here influences the instrumented computation (metrics on vs
    off must never change a race report). *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

type counter

(** Find-or-create the counter registered under [name] (creation is
    idempotent: one name, one set of cells). *)
val counter : string -> counter

val counter_name : counter -> string

(** Add 1 / [n] to the calling domain's shard.  No-op when disabled. *)
val incr : counter -> unit

val add : counter -> int -> unit

(** Merge-on-read total across all shards. *)
val value : counter -> int

type histogram

(** Find-or-create a power-of-two-bucketed histogram. *)
val histogram : string -> histogram

val histogram_name : histogram -> string

(** Record one (non-negative) sample.  No-op when disabled. *)
val observe : histogram -> int -> unit

type hstats = { count : int; sum : int; max : int }

(** Merged sample statistics across all shards. *)
val hstats : histogram -> hstats

(** Merged per-bucket sample counts; bucket [i] holds samples in
    [2^(i-1), 2^i) (bucket 0 holds 0). *)
val bucket_counts : histogram -> int array

(** Merged view of the whole registry, sorted by name.  Histograms
    appear as [name#count] / [name#sum] / [name#max] entries. *)
val snapshot : unit -> (string * int) list

(** [diff before after] is the per-name delta, dropping zero entries;
    names absent from [before] count as zero there. *)
val diff : (string * int) list -> (string * int) list -> (string * int) list

(** Zero every registered cell (the registry itself is kept). *)
val reset : unit -> unit
