(** The benchmark regression gate.

    Compares two bench summary files (JSONL of flat
    {!Yashme_util.Json} objects, as written by [bench/main.exe --out])
    on one numeric metric under a percentage tolerance.  Metrics are
    higher-is-better: a current value below
    [baseline * (1 - tolerance/100)] regresses, and a baseline
    benchmark missing from the current file fails the gate outright. *)

type entry = {
  e_key : string;  (** ["bench"] plus ["[jobs=N]"] when present *)
  e_fields : (string * Yashme_util.Json.value) list;
}

(** Look up a field. *)
val field : entry -> string -> Yashme_util.Json.value option

(** Numeric field ([`I] or [`F]); [None] when absent or non-numeric. *)
val number : entry -> string -> float option

(** Parse JSONL content ({!Yashme_util.Json.of_jsonl}: errors carry
    the physical ["line N"], empty content is an error); every line
    must carry a ["bench"] field. *)
val of_jsonl : string -> (entry list, string) result

(** Read and parse a bench file; empty/unreadable files are errors. *)
val load : string -> (entry list, string) result

type verdict = {
  v_key : string;
  v_metric : string;
  v_baseline : float;
  v_current : float;
  v_delta_pct : float;  (** (current - baseline) / baseline * 100 *)
  v_regressed : bool;
}

(** Which direction of change is an improvement for a metric. *)
type better = Higher | Lower

(** Judge one metric comparison under a percentage [tolerance].
    [better] defaults to [Higher] (higher-is-better, the throughput
    convention): the verdict regresses when [current] falls below
    [baseline * (1 - tolerance/100)]; with [Lower] it regresses when
    [current] exceeds [baseline * (1 + tolerance/100)].  The run-ledger
    compare ([yashme compare]) reuses this with tolerance 0. *)
val judge :
  key:string ->
  metric:string ->
  ?better:better ->
  tolerance:float ->
  baseline:float ->
  current:float ->
  unit ->
  verdict

type outcome = {
  passed : bool;
  verdicts : verdict list;  (** in baseline order *)
  missing : string list;
      (** baseline keys absent from current (or absent the metric) —
          any entry here fails the gate *)
}

(** Gate [current] against [baseline].  [metric] defaults to
    ["ops_per_s"]; [tolerance] is the allowed regression in percent.
    Benchmarks only in [current] are ignored (new benchmarks don't
    need a baseline to land), and so are fields other than [metric]:
    rows may carry extra metrics (e.g. GC or snapshot columns added in
    a newer build) without disturbing an older baseline. *)
val diff :
  ?metric:string ->
  tolerance:float ->
  baseline:entry list ->
  current:entry list ->
  unit ->
  outcome

(** Like {!diff}, judging several [(metric, direction)] pairs per
    baseline row — one verdict per pair; a metric absent on either
    side fails the gate under the ["key.metric"] name. *)
val diff_metrics :
  metrics:(string * better) list ->
  tolerance:float ->
  baseline:entry list ->
  current:entry list ->
  unit ->
  outcome

(** The scaling-gate metric set — [speedup] and [efficiency], both
    higher-is-better ([yashme bench-diff --scaling]). *)
val scaling_metrics : (string * better) list

val pp_verdict : Format.formatter -> verdict -> unit
val pp_outcome : Format.formatter -> outcome -> unit
val outcome_to_string : outcome -> string
