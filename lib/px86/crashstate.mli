(** Durable memory state handed from a crashed execution to its
    post-crash successor.

    A crash materializes, per cache line, one *cut* of the committed
    store sequence (chosen by a {!Machine.cut_strategy}) into a concrete
    byte image that drives post-crash control flow.  Independently of the
    materialized cut, the state answers for every stored-to location the
    full set of {e candidate} stores a post-crash load could have read —
    the detector checks all of them for persistency races, which is how
    Yashme piggybacks on Jaaru's constraint-based execution enumeration
    (paper, section 6, Implementation).

    A state is an immutable {e layer}: the crashed execution's per-line
    snapshot of its committed stores, on top of the state that execution
    inherited.  Lookups walk the layers newest first; nothing is
    flattened or copied when a crash materializes, and one state can be
    shared by any number of executions on any number of domains. *)

type origin = { store : Event.store; exec_id : int }

(** One cache line as the crash left it. *)
type line = {
  line : int;  (** line number *)
  stores : Event.store list;
      (** every store the execution committed to the line, newest
          first (a line-straddling store is on both its lines) *)
  lb : int;  (** flush lower bound at the crash *)
  cut : int;
      (** the materialized cut: stores whose first byte is on this line
          persisted iff their [seq] is at most [cut] *)
}

type t = {
  exec_id : int;  (** execution that produced this state; -1 for boot *)
  parent : t option;  (** the state that execution inherited; [None] for boot *)
  depth : int;  (** chain position: 0 for boot, parent's + 1 *)
  image : Memimage.t;
      (** the materialized durable bytes; never written once the state
          exists — executions seeded from it read a copy *)
  lines : line array;  (** every line the execution touched, ascending *)
  durable_nt : int array;
      (** seqs of the individually durable non-temporal stores, ascending *)
  heap_break : int;  (** allocator high-water mark, persisted *)
}

(** The pristine pre-boot state: zero image, no stores. *)
val boot : unit -> t

(** [layer ~parent ...] is the state a crash of an execution seeded
    from [parent] leaves behind. *)
val layer :
  parent:t ->
  exec_id:int ->
  image:Memimage.t ->
  lines:line array ->
  durable_nt:int array ->
  heap_break:int ->
  t

(** [persisted t s] holds when the crash that produced [t] persisted
    [s], one of its own execution's committed stores: [s]'s [seq] is at
    most the cut of the line of its first byte, or [s] is individually
    durable. *)
val persisted : t -> Event.store -> bool

(** [hydrate t] is a private copy of [t]'s image: the cache an execution
    seeded from [t] starts with.  It is the one copy left on the crash
    path ({!Machine.create} makes it), so it is what the snapshot cost
    accounting charges: when metrics or attribution are enabled, each
    hydration charges {!copy_cost} bytes to the [px86/snapshot_copy] cost
    center and the [px86/snapshot_copies]/[px86/snapshot_bytes]
    counters. *)
val hydrate : t -> Memimage.t

(** [t] with a private image ({!hydrate}d, and charged as such).  States
    are immutable, so sharing one never needs a copy; this remains for
    callers that measure the hydration cost on its own. *)
val copy : t -> t

(** Bytes {!hydrate} duplicates: the image's backing bytes.
    Deterministic for a given store history, hence jobs-invariant. *)
val copy_cost : t -> int

(** Origin of a load of [[addr, addr+size)]: the newest writer among the
    bytes' origins, and whether the bytes mix several writers (a torn
    read).  A byte's origin is the newest persisted store over it in the
    newest layer that has one; origins order by chain position first and
    by [seq] within one execution.  [None] when no byte was ever
    written. *)
val find_origin : t -> addr:Addr.t -> size:int -> (origin * bool) option

(** Candidate stores for a load, oldest first.  The newest layer whose
    execution committed a store of exactly [(addr, size)] answers: its
    covering stores from the newest durable base up (with no durable
    base, preceded by its parent's candidates).  Without such a layer,
    the distinct byte origins answer. *)
val find_candidates : t -> addr:Addr.t -> size:int -> origin list
