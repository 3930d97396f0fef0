(** Per-domain execution timelines, reconstructed from recorded traces.

    Folds the engine's per-worker trace lanes (pid 0, tid = worker
    slot; see {!Trace}) back into busy / queue-wait / idle segments:
    {b busy} is time covered by a work span (category ["scenario"] by
    default, top-level spans when a lane carries none), {b queue-wait}
    is time inside the lane's alive span (name ["worker"]) but outside
    any work span, and {b idle} is the remainder of the batch window.

    Everything here is wall-clock class: timelines differ run to run
    and across [--jobs] counts by construction.  Nothing feeds back
    into the deterministic report path. *)

type kind = Busy | Wait | Idle

type segment = { g_start_us : int; g_end_us : int; g_kind : kind }

type lane = {
  tl_pid : int;
  tl_tid : int;
  tl_segments : segment list;  (** sorted, covering the batch window *)
  tl_spans : int;  (** work spans folded into the busy cover *)
  tl_busy_us : int;
  tl_wait_us : int;
  tl_idle_us : int;
  tl_first_us : int;  (** first busy microsecond (window start if none) *)
  tl_last_us : int;  (** last busy microsecond (window start if none) *)
  tl_utilization : float;  (** busy / window *)
  tl_gaps : int list;  (** non-busy gap lengths between busy segments *)
}

type t = {
  t_start_us : int;
  t_end_us : int;
  t_makespan_us : int;
  t_lanes : lane list;  (** sorted by (pid, tid) *)
  t_busy_us : int;
  t_critical_path_us : int;
      (** largest per-lane busy total: a lower bound on the makespan
          any schedule could reach with this work partition *)
  t_utilization : float;  (** busy / (lanes * makespan) *)
  t_straggler : (int * int) option;
      (** (pid, tid) of the lane whose busy cover ends last *)
  t_straggler_tail_us : int;
      (** the straggler's lead over the next-latest lane *)
}

(** Reconstruct lanes from a trace.  Events may arrive out of order;
    0-length spans are tolerated (they contribute no busy time but are
    counted).  [work_cat] (default ["scenario"]) selects work spans,
    [alive_name] (default ["worker"]) the alive cover.  Errors on a
    trace with no Complete spans. *)
val of_events :
  ?work_cat:string ->
  ?alive_name:string ->
  Trace.event list ->
  (t, string) result

(** Idle-gap histogram of a lane: power-of-two buckets as
    [(upper bound in us, count)], ascending, non-empty buckets only. *)
val gap_histogram : lane -> (int * int) list

(** Compact rendering of {!gap_histogram} (["-"] when gap-free). *)
val histogram_label : lane -> string

val max_gap_us : lane -> int

(** ASCII lane chart: one row per lane, [#] busy / [.] queue-wait /
    space idle, plus a legend line.  [width] (default 64) is the
    number of time buckets. *)
val ascii : ?width:int -> t -> string

(** Dependency-free SVG lane chart; the document passes {!check_svg}. *)
val svg : ?width:int -> t -> string

(** XML well-formedness check for the SVG artifact (trace-lint
    analogue): balanced tags, quoted attributes, predefined entities
    only, root element [<svg>]. *)
val check_svg : string -> (unit, string) result

val check_svg_file : string -> (unit, string) result

(** One flat JSONL object per lane ({!Yashme_util.Json.encode_obj}
    shape).  Timestamps are window-relative.  All wall-clock class:
    timeline exports are timing artifacts, not byte-stable across
    runs. *)
val lane_fields : t -> lane -> (string * Yashme_util.Json.value) list

(** The per-lane utilization / idle-gap table. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
