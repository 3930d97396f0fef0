(** File I/O and run-to-run comparison for the durable run ledger.

    The schema (entry record, field encoding, version gate, digests,
    field classification) lives in {!Observe.Ledger}; this module binds
    it to the JSONL codec: one {!Yashme_util.Json.encode_obj} line per
    run, appended by [--ledger FILE] and re-read by [yashme runs] /
    [yashme compare]. *)

(** Append one entry to [path] (created if absent), crash-safely: the
    existing entries and the new line are written to a temporary that
    atomically replaces [path], so an interrupted append never leaves
    a truncated ledger. *)
val append : string -> Observe.Ledger.entry -> unit

(** The one run-manifest builder, for detection runs, soak runs and
    bench rows alike: engine stats and finding counts, the digest of a
    metrics diff and the cost centers of an attribution diff, stamped
    with the current time. *)
val entry :
  run:string -> program:string -> variant:string -> mode:string -> seed:int ->
  stats:Pm_harness.Engine.stats -> races:int -> benign:int -> raw_races:int ->
  recovery_failures:int -> witnesses:int -> metrics:(string * int) list ->
  coverage_digest:string -> cost:Observe.Attribution.row list ->
  Observe.Ledger.entry

(** A detection run's entry: finding counts from the report, and the
    metrics, coverage and attribution attached to it (a report without
    coverage digests as [""]). *)
val of_report :
  run:string -> mode:string -> seed:int -> witnesses:int ->
  stats:Pm_harness.Engine.stats -> Pm_harness.Report.t -> Observe.Ledger.entry

(** Read and decode a ledger file.  Errors carry the 1-based physical
    line position (["line N: ..."], blank lines counted); an empty file is an error (a ledger you
    can list must have at least one run), and a line with a version
    newer than {!Observe.Ledger.version} is a positioned error, never a
    silent misread. *)
val load : string -> (Observe.Ledger.entry list, string) result

(** Select one run: a 1-based ordinal into the file ("2" = second
    line), or a unique [e_run] label.  Ambiguous labels and
    out-of-range ordinals are errors. *)
val find :
  Observe.Ledger.entry list -> string -> (Observe.Ledger.entry, string) result

type comparison = {
  cmp_changed : Bench_gate.verdict list;
      (** non-timing numeric fields whose values differ (tolerance 0,
          {!Observe.Ledger.direction}-aware: a [`Higher] field that
          dropped, or a [`Lower] field that rose, is regressed; every
          other delta is a change) *)
  cmp_timing : Bench_gate.verdict list;
      (** timing-class deltas — informational, never gate *)
  cmp_mismatched : (string * string * string) list;
      (** (field, baseline, current) string-field disagreements —
          comparing runs of different programs/variants/digests fails *)
  cmp_passed : bool;
      (** no non-timing numeric delta and no string mismatch *)
}

(** Compare two runs field by field.  The field set is the union of
    both sides' numeric fields (a side missing a field contributes 0,
    so a cost center present in only one run surfaces as a delta
    rather than vanishing); unknown extra fields never error. *)
val compare_runs :
  baseline:Observe.Ledger.entry -> current:Observe.Ledger.entry -> comparison

(** Deterministic rendering: changed fields (regressions flagged),
    string mismatches, timing deltas, and a final
    ["ledger compare: PASS"]/[FAIL] line. *)
val render : a_label:string -> b_label:string -> comparison -> string
