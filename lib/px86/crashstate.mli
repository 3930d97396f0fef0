(** Durable memory state handed from a crashed execution to its
    post-crash successor.

    A crash materializes, per cache line, one *cut* of the committed
    store sequence (chosen by a {!cut_strategy}) into a concrete byte
    image that drives post-crash control flow.  Independently of the
    materialized cut, the state records for every stored-to location the
    full set of {e candidate} stores a post-crash load could have read —
    the detector checks all of them for persistency races, which is how
    Yashme piggybacks on Jaaru's constraint-based execution enumeration
    (paper, section 6, Implementation). *)

type origin = { store : Event.store; exec_id : int }

type t = {
  exec_id : int;  (** execution that produced this state; -1 for boot *)
  image : Memimage.t;
      (** written only while the crash materializes it; executions
          seeded from the state read it and copy it, never write it *)
  origins : (Addr.t, origin) Hashtbl.t;  (** byte address -> writer *)
  cands : (Addr.t * int, origin list) Hashtbl.t;
      (** (addr, size) -> candidate stores, oldest first *)
  mutable heap_break : int;  (** allocator high-water mark, persisted *)
}

(** The pristine pre-boot state: zero image, no origins. *)
val boot : unit -> t

(** A snapshot that shares no mutable structure with [t]: the byte image
    and both index tables are duplicated, so executions seeded from the
    copy (possibly on another domain) can never mutate the original.
    The immutable committed [Event.store] records are shared.

    Instrumented: when metrics or attribution are enabled, each copy
    charges {!copy_cost} bytes to the [px86/snapshot_copy] cost center
    and the [px86/snapshot_copies]/[px86/snapshot_bytes] counters. *)
val copy : t -> t

(** Bytes {!copy} duplicates: image backing bytes plus a nominal
    16-byte charge per index-table entry.  Deterministic for a given
    store history, hence jobs-invariant. *)
val copy_cost : t -> int

(** Origin of a load of [[addr, addr+size)]: the newest writer among the
    bytes' origins, and whether the bytes mix several writers (a torn
    read). [None] when no byte was ever written. *)
val find_origin : t -> addr:Addr.t -> size:int -> (origin * bool) option

(** Candidate stores for a load; falls back to the byte origins when no
    exact (addr, size) entry exists. *)
val find_candidates : t -> addr:Addr.t -> size:int -> origin list
