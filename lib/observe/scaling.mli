(** Jobs-sweep analysis: speedup, parallel efficiency, Amdahl serial
    fraction, and a named decomposition of lost parallel wall-clock.

    The driver runs the same program at several [--jobs] levels and
    feeds one {!Ledger.entry} per count (the run record every command
    writes, its [e_cost] carrying the cost-center window around the
    run); {!analyze} derives everything else.  Columns follow
    {!Attribution}'s two classes: counts and charged units are
    jobs-invariant and form the byte-stable
    [fields ~timing:false] projection ({!check} enforces it across a
    sweep), while wall clocks, speedup/efficiency and GC word deltas
    are scheduling-dependent and appear only in full rows. *)

(** The jobs-sweep driver of [yashme scaling] and the bench:
    [sweep ~repeats ~levels ~elapsed run] makes [repeats] (at least one)
    interleaved passes, each calling [run ~rep jobs] once per level, and
    returns [(jobs, best)] in [levels] order, [best] being the result
    with the least [elapsed] (the earliest among ties). *)
val sweep :
  repeats:int ->
  levels:int list ->
  elapsed:('a -> float) ->
  (rep:int -> int -> 'a) ->
  (int * 'a) list

type derived = {
  d_speedup : float;  (** T_ref / T_n *)
  d_efficiency : float;  (** speedup / (jobs / reference jobs) *)
  d_serial_fraction : float option;
      (** per-level Amdahl estimate; [None] at the reference level *)
  d_lost_s : float;
      (** jobs * elapsed - reference elapsed: extra domain-seconds
          spent versus a perfect split of the reference run *)
}

type analysis = {
  a_program : string;
  a_reference_jobs : int;  (** lowest jobs level: the speedup baseline *)
  a_levels : (Ledger.entry * derived) list;  (** ascending jobs *)
  a_serial_fraction : float option;
      (** mean per-level Amdahl estimate over levels above the
          reference; [None] for a single-level sweep *)
  a_loss_centers : (string * float) list;
      (** lost seconds by named center at the highest jobs level,
          descending; the residual is labelled ["other"] *)
}

(** Errors on an empty sweep or duplicate jobs levels; otherwise sorts
    ascending and derives per-level and fitted quantities. *)
val analyze : program:string -> Ledger.entry list -> (analysis, string) result

(** The engine-determinism check a sweep carries its own evidence for:
    every level's non-timing projection (minus the [jobs] identity)
    must match the reference level's.  Names the first diverging
    field. *)
val check : program:string -> Ledger.entry list -> (unit, string) result

(** Flat JSONL row for one level ({!Yashme_util.Json.encode_obj} shape).
    [timing:false] keeps only the jobs-invariant class; the full row
    appends the wall-clock class after it so the projection is a
    stable field prefix. *)
val fields :
  ?timing:bool ->
  program:string ->
  Ledger.entry * derived ->
  (string * Yashme_util.Json.value) list

(** Aligned per-level table plus the serial-fraction fit and the
    loss-center decomposition. *)
val pp : Format.formatter -> analysis -> unit

val to_string : analysis -> string
