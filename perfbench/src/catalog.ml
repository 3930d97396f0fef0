(* The benchmark's workloads and metric catalog.  BENCHMARK.json at the
   repository root lists the same names; the tests check that the two
   agree. *)

let workloads = [ "mc-suite"; "recovery-grid"; "soak-service" ]

(* The seed used when none is given.  Seed 9001 is held out of tuning
   (perfbench/NOTES.md). *)
let default_seed = 1

let m name unit = { Metric.name; unit }

let end_to_end =
  [
    m "setup_s" "s";
    m "verdict_s" "s";
    m "cpu_s" "s";
    m "alloc_words_per_op" "words/op";
    m "peak_heap_mb" "MB";
    m "verdict_pass_share" "ratio";
  ]

let mixes = [ "read-heavy"; "write-heavy"; "churn"; "rmw-heavy" ]
let layers = [ "harness"; "runtime"; "px86"; "core"; "corpus"; "observe" ]

let per_layer =
  List.map (fun l -> m (l ^ ".self_s") "s") layers
  @ [
      m "runtime.sim_ops" "count";
      m "runtime.exec_ns_per_op" "ns";
      m "runtime.alloc_words_per_op" "words/op";
      m "core.detector_share" "ratio";
      m "core.alloc_words_per_op" "words/op";
      m "core.raw_races" "count";
      m "core.distinct_races" "count";
      m "px86.snapshot_copy_us" "us";
      m "px86.snapshot_bytes" "B";
      m "harness.probe_s" "s";
      m "harness.scenarios" "count";
      m "harness.executions" "count";
      m "harness.chain_crashed_ratio" "ratio";
      m "harness.engine_busy_share" "ratio";
      m "harness.scenario_p50_us" "us";
      m "harness.scenario_p99_us" "us";
      m "harness.batch_overhead_ms" "ms";
    ]
  @ List.map (fun mix -> m ("soak.scenario_p50_us." ^ mix) "us") mixes
  @ [
      m "soak.silent_combos" "count";
      m "corpus.absorb_s" "s";
      m "corpus.encode_s" "s";
      m "corpus.witnesses" "count";
      m "corpus.encoded_bytes" "B";
      m "corpus.dedup_ratio" "ratio";
      m "observe.collect_s" "s";
      m "observe.enabled_share" "ratio";
      m "trace.overhead_share" "ratio";
      m "unattributed_s" "s";
    ]

