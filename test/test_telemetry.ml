(* Tests for the exploration telemetry subsystem: crash-space coverage
   accounting (jobs-invariance, ambient attribution, rendering), live
   progress streams, trace profiles, and the benchmark regression
   gate.  The determinism contract is asserted end to end: coverage
   snapshots are byte-identical across --jobs counts, and a race
   report is byte-identical with all telemetry on vs off. *)

module Coverage = Observe.Coverage
module Progress = Observe.Progress
module Profile = Observe.Profile
module Metrics = Observe.Metrics
module Trace = Observe.Trace
module Runner = Pm_harness.Runner
module Report = Pm_harness.Report
module Program = Pm_harness.Program
module Engine = Pm_harness.Engine
module Json = Yashme_util.Json
module Bench_gate = Pm_corpus.Bench_gate

open Pm_runtime

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let toy =
  Program.make ~name:"toy"
    ~setup:(fun () ->
      let a = Pmem.alloc ~align:64 16 in
      Pmem.set_root 0 a)
    ~pre:(fun () ->
      let a = Pmem.get_root 0 in
      Pmem.store ~label:"racy" a 1L;
      Pmem.store ~label:"safe" ~atomic:Px86.Access.Release (a + 8) 2L;
      Pmem.clflush a;
      Pmem.mfence ())
    ~post:(fun () ->
      let a = Pmem.get_root 0 in
      ignore (Pmem.load a);
      ignore (Pmem.load ~atomic:Px86.Access.Acquire (a + 8)))
    ()

(* Every test leaves the global observe state as it found it. *)
let quiesce () =
  Metrics.disable ();
  Metrics.reset ();
  Coverage.disable ();
  Coverage.reset ();
  ignore (Progress.stop ());
  Trace.stop ();
  Trace.clear ()

(* The coverage snapshot in its exported JSONL form: the byte string
   the jobs-invariance contract quantifies over. *)
let coverage_jsonl () =
  String.concat "\n"
    (List.map (fun s -> Json.encode_obj (Coverage.fields s)) (Coverage.snapshot ()))

(* ------------------------------------------------------------------ *)
(* Coverage                                                             *)

let test_coverage_disabled_is_noop () =
  quiesce ();
  Coverage.with_program "p" (fun () ->
      Coverage.scenario_started ();
      Coverage.plan_exercised 0;
      Coverage.crash_point 0);
  check_int "nothing recorded while disabled" 0
    (List.length (Coverage.snapshot ()));
  quiesce ()

let test_coverage_requires_ambient_program () =
  quiesce ();
  Coverage.enable ();
  (* outside with_program: dropped *)
  Coverage.scenario_started ();
  Coverage.plan_exercised 3;
  Coverage.line_materialized 1;
  check_int "hooks without ambient program are dropped" 0
    (List.length (Coverage.snapshot ()));
  quiesce ()

let test_coverage_accumulates_and_merges () =
  quiesce ();
  Coverage.enable ();
  (* Same program from two domains: counters sum, index sets union. *)
  let work lo =
    Coverage.with_program "prog" (fun () ->
        for i = lo to lo + 2 do
          Coverage.scenario_started ();
          Coverage.plan_exercised i;
          Coverage.crash_point i;
          Coverage.prefix_expanded ();
          Coverage.pruned `Coherence;
          Coverage.line_materialized (i mod 2)
        done)
  in
  let d = Domain.spawn (fun () -> work 3) in
  work 0;
  Domain.join d;
  (match Coverage.find "prog" with
  | None -> Alcotest.fail "program not in snapshot"
  | Some s ->
      check_int "scenarios sum" 6 s.Coverage.scenarios;
      Alcotest.(check (list int))
        "plan indices union" [ 0; 1; 2; 3; 4; 5 ] s.Coverage.plan_indices;
      Alcotest.(check (list int))
        "crash points union" [ 0; 1; 2; 3; 4; 5 ] s.Coverage.crash_points;
      check_int "expansions sum" 6 s.Coverage.prefix_expansions;
      check_int "pruned coherence sum" 6 s.Coverage.pruned_coherence;
      check_int "pruned persisted zero" 0 s.Coverage.pruned_persisted;
      check_int "lines deduplicated" 2 s.Coverage.lines_materialized);
  quiesce ()

let test_coverage_ambient_restored_on_exception () =
  quiesce ();
  Coverage.enable ();
  (try
     Coverage.with_program "outer" (fun () ->
         try Coverage.with_program "inner" (fun () -> failwith "boom")
         with Failure _ ->
           (* ambient must be back to "outer" here *)
           Coverage.scenario_started ())
   with Failure _ -> ());
  (match Coverage.find "outer" with
  | Some s -> check_int "attributed to restored ambient" 1 s.Coverage.scenarios
  | None -> Alcotest.fail "outer not recorded");
  check "inner recorded nothing" true (Coverage.find "inner" = None);
  quiesce ()

(* The same program under two model variants accumulates into separate
   buckets, and the snapshot names each bucket's variant. *)
let test_coverage_per_variant () =
  quiesce ();
  Coverage.enable ();
  Coverage.with_program "prog" (fun () -> Coverage.scenario_started ());
  Coverage.with_program ~variant:"fence-nop" "prog" (fun () ->
      Coverage.scenario_started ();
      Coverage.scenario_started ());
  (match Coverage.find "prog" with
  | Some s ->
      check_int "default bucket isolated" 1 s.Coverage.scenarios;
      check_str "default bucket label" Coverage.default_variant
        s.Coverage.variant
  | None -> Alcotest.fail "default bucket missing");
  (match Coverage.find ~variant:"fence-nop" "prog" with
  | Some s -> check_int "variant bucket isolated" 2 s.Coverage.scenarios
  | None -> Alcotest.fail "variant bucket missing");
  check "fields carry the variant" true
    (List.exists
       (fun s -> List.assoc "variant" (Coverage.fields s) = `S "fence-nop")
       (Coverage.snapshot ()));
  quiesce ()

let test_indices_label () =
  check_str "empty" "-" (Coverage.indices_label []);
  check_str "singleton" "7" (Coverage.indices_label [ 7 ]);
  check_str "range compaction" "0-2,5"
    (Coverage.indices_label [ 0; 1; 2; 5 ]);
  check_str "crash-at-end pseudo-index" "0-1,end"
    (Coverage.indices_label [ -1; 0; 1 ]);
  check_str "only end" "end" (Coverage.indices_label [ -1 ])

let test_coverage_jobs_invariant () =
  quiesce ();
  Coverage.enable ();
  ignore (Runner.model_check_outcome ~jobs:1 toy);
  let j1 = coverage_jsonl () in
  Coverage.reset ();
  ignore (Runner.model_check_outcome ~jobs:4 toy);
  let j4 = coverage_jsonl () in
  check "toy explored something" true (String.length j1 > 0);
  check_str "coverage byte-identical for jobs=1 vs jobs=4" j1 j4;
  quiesce ()

let test_coverage_counts_match_engine () =
  quiesce ();
  Coverage.enable ();
  let o = Runner.model_check_outcome ~jobs:2 toy in
  (match Coverage.find "toy" with
  | None -> Alcotest.fail "toy not in coverage snapshot"
  | Some s ->
      check_int "one coverage scenario per engine scenario"
        o.Runner.o_stats.Engine.scenarios s.Coverage.scenarios;
      (* model checking exercises every flush point plus crash-at-end:
         plan indices 0..n-1 and the -1 pseudo-index *)
      check_int "plan indices = scenarios"
        o.Runner.o_stats.Engine.scenarios
        (List.length s.Coverage.plan_indices);
      check "crash-at-end exercised" true
        (List.mem (-1) s.Coverage.plan_indices);
      check "every plan fired its crash" true
        (s.Coverage.crash_points = s.Coverage.plan_indices);
      check "crashes materialized lines" true
        (s.Coverage.lines_materialized > 0));
  quiesce ()

(* ------------------------------------------------------------------ *)
(* Report byte-identity: all telemetry on vs off                        *)

let test_report_identical_with_telemetry_on () =
  quiesce ();
  let plain =
    Report.to_string (Runner.model_check_outcome ~jobs:2 toy).Runner.o_report
  in
  let tmp = Filename.temp_file "yashme_progress" ".jsonl" in
  Metrics.enable ();
  Coverage.enable ();
  Progress.start ~heartbeat:false ~jsonl:tmp ();
  Trace.start ();
  let loud =
    Report.to_string (Runner.model_check_outcome ~jobs:2 toy).Runner.o_report
  in
  ignore (Progress.stop ());
  Sys.remove tmp;
  check_str "report byte-identical with telemetry on" plain loud;
  quiesce ()

(* ------------------------------------------------------------------ *)
(* Progress                                                             *)

let test_progress_inactive_is_noop () =
  quiesce ();
  Progress.tick ~races:3 ~faulted:true ();
  check_int "stop while inactive reports zero emissions" 0 (Progress.stop ())

let test_progress_jsonl_stream () =
  quiesce ();
  let tmp = Filename.temp_file "yashme_progress" ".jsonl" in
  Progress.start ~heartbeat:false ~jsonl:tmp ();
  Progress.batch 3;
  Progress.tick ~races:1 ~faulted:false ();
  Progress.tick ~races:0 ~faulted:true ();
  Progress.tick ~races:2 ~faulted:false ();
  let emitted = Progress.stop () in
  check "at least the final emission" true (emitted >= 1);
  (match
     Json.of_jsonl Json.flat (In_channel.with_open_bin tmp In_channel.input_all)
   with
  | Error e -> Alcotest.fail ("progress stream not well-formed JSONL: " ^ e)
  | Ok rows ->
      check_int "one line per emission" emitted (List.length rows);
      let fields = List.nth rows (List.length rows - 1) in
      check "final line: done = 3" true
        (List.assoc "done" fields = `I 3);
      check "final line: total = 3" true
        (List.assoc "total" fields = `I 3);
      check "final line: races = 3" true
        (List.assoc "races" fields = `I 3);
      check "final line: faults = 1" true
        (List.assoc "faults" fields = `I 1));
  Sys.remove tmp;
  quiesce ()

let test_progress_engine_ticks () =
  quiesce ();
  let tmp = Filename.temp_file "yashme_progress" ".jsonl" in
  Progress.start ~heartbeat:false ~jsonl:tmp ();
  let o = Runner.model_check_outcome ~jobs:2 toy in
  ignore (Progress.stop ());
  let ic = open_in tmp in
  let last = ref "" in
  (try
     while true do
       last := input_line ic
     done
   with End_of_file -> close_in ic);
  (match Json.decode_obj !last with
  | Error e -> Alcotest.fail e
  | Ok fields ->
      let scenarios = o.Runner.o_stats.Engine.scenarios in
      check "engine announced the batch" true
        (List.assoc "total" fields = `I scenarios);
      check "every scenario ticked" true
        (List.assoc "done" fields = `I scenarios));
  Sys.remove tmp;
  quiesce ()

(* ------------------------------------------------------------------ *)
(* Profile                                                              *)

let ev ?(cat = "") ?(pid = 0) ?(tid = 0) ~ts ~dur name =
  { Trace.name; cat; ph = Trace.Complete; ts_us = ts; dur_us = dur; pid; tid;
    args = [] }

let test_profile_self_time () =
  (* parent [0,120) with children [10,40) and [50,70): self = 70 *)
  let events =
    [ ev ~cat:"a" ~ts:0 ~dur:120 "parent";
      ev ~cat:"b" ~ts:10 ~dur:30 "child";
      ev ~cat:"b" ~ts:50 ~dur:20 "child" ]
  in
  let rows = Profile.by_name events in
  let find k = List.find (fun r -> r.Profile.r_key = k) rows in
  let parent = find "parent" and child = find "child" in
  check_int "parent total inclusive" 120 parent.Profile.r_total_us;
  check_int "parent self excludes children" 70 parent.Profile.r_self_us;
  check_int "child count" 2 child.Profile.r_count;
  check_int "leaf self = total" 50 child.Profile.r_self_us;
  check_str "sorted by self descending" "parent"
    (List.hd rows).Profile.r_key;
  let cats = Profile.by_cat events in
  check_int "category aggregation" 2 (List.length cats)

let test_profile_lanes_isolated () =
  (* identical intervals in different lanes must not nest *)
  let events =
    [ ev ~tid:0 ~ts:0 ~dur:100 "a"; ev ~tid:1 ~ts:10 ~dur:30 "b" ]
  in
  let rows = Profile.by_name events in
  let find k = List.find (fun r -> r.Profile.r_key = k) rows in
  check_int "no cross-lane nesting" 100 (find "a").Profile.r_self_us;
  match Observe.Timeline.of_events events with
  | Error e -> Alcotest.fail e
  | Ok t ->
      let lanes = t.Observe.Timeline.t_lanes in
      check_int "two lanes" 2 (List.length lanes);
      check_int "lane busy = top-level duration" 100
        (List.hd lanes).Observe.Timeline.tl_busy_us

let test_profile_parse_roundtrip () =
  quiesce ();
  Trace.start ();
  Observe.Span.with_ ~cat:"t" "outer" (fun () ->
      Observe.Span.with_ ~cat:"t" "inner" (fun () -> ());
      Trace.instant ~cat:"t" "mark");
  Trace.stop ();
  let n_complete =
    List.length
      (List.filter (fun (e : Trace.event) -> e.Trace.ph = Trace.Complete)
         (Trace.events ()))
  in
  List.iter
    (fun suffix ->
      let tmp = Filename.temp_file "yashme_profile" suffix in
      Trace.write tmp;
      (match Profile.parse_file tmp with
      | Error e -> Alcotest.fail (suffix ^ ": " ^ e)
      | Ok events ->
          check_int (suffix ^ ": all events parsed") 3 (List.length events);
          check_int
            (suffix ^ ": complete spans preserved")
            n_complete
            (List.length
               (List.filter
                  (fun (e : Trace.event) -> e.Trace.ph = Trace.Complete)
                  events)));
      Sys.remove tmp)
    [ ".json"; ".jsonl" ];
  quiesce ()

let test_profile_rejects_empty_and_garbage () =
  let tmp = Filename.temp_file "yashme_profile" ".json" in
  (match Profile.parse_file tmp with
  | Error e -> check "empty file positioned error" true
        (String.length e > 0 && String.sub e 0 6 = "offset")
  | Ok _ -> Alcotest.fail "empty file accepted");
  let oc = open_out tmp in
  output_string oc "{\"traceEvents\":[{\"name\":\"x\"";
  close_out oc;
  (match Profile.parse_file tmp with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated file accepted");
  Sys.remove tmp

(* ------------------------------------------------------------------ *)
(* Bench gate                                                           *)

let baseline_jsonl =
  "{\"bench\":\"CCEH\",\"jobs\":2,\"ops_per_s\":1000.0}\n\
   {\"bench\":\"FAST_FAIR\",\"jobs\":2,\"ops_per_s\":2000.0}\n"

let entries s =
  match Bench_gate.of_jsonl s with
  | Ok es -> es
  | Error e -> Alcotest.fail e

let test_bench_gate_passes_within_tolerance () =
  let baseline = entries baseline_jsonl in
  let current =
    entries
      "{\"bench\":\"CCEH\",\"jobs\":2,\"ops_per_s\":950.0}\n\
       {\"bench\":\"FAST_FAIR\",\"jobs\":2,\"ops_per_s\":2100.0}\n"
  in
  let o = Bench_gate.diff ~tolerance:10. ~baseline ~current () in
  check "within tolerance passes" true o.Bench_gate.passed;
  check_int "one verdict per baseline entry" 2
    (List.length o.Bench_gate.verdicts);
  check "self-diff is exact" true
    (Bench_gate.diff ~tolerance:0. ~baseline ~current:baseline ())
      .Bench_gate.passed

let test_bench_gate_fails_on_regression () =
  let baseline = entries baseline_jsonl in
  let current =
    entries
      "{\"bench\":\"CCEH\",\"jobs\":2,\"ops_per_s\":800.0}\n\
       {\"bench\":\"FAST_FAIR\",\"jobs\":2,\"ops_per_s\":2000.0}\n"
  in
  let o = Bench_gate.diff ~tolerance:10. ~baseline ~current () in
  check "20%% drop beyond 10%% tolerance fails" true (not o.Bench_gate.passed);
  let v =
    List.find (fun v -> v.Bench_gate.v_regressed) o.Bench_gate.verdicts
  in
  check_str "regressed bench identified" "CCEH[jobs=2]" v.Bench_gate.v_key;
  check "delta is -20%%" true (abs_float (v.Bench_gate.v_delta_pct +. 20.) < 1e-9);
  check "rendered outcome says FAIL" true
    (let s = Bench_gate.outcome_to_string o in
     String.length s >= 4 && String.sub s (String.length s - 4) 4 = "FAIL")

let test_bench_gate_fails_on_missing () =
  let baseline = entries baseline_jsonl in
  let current = entries "{\"bench\":\"CCEH\",\"jobs\":2,\"ops_per_s\":1000.0}\n" in
  let o = Bench_gate.diff ~tolerance:10. ~baseline ~current () in
  check "dropped benchmark fails the gate" true (not o.Bench_gate.passed);
  Alcotest.(check (list string))
    "missing key reported" [ "FAST_FAIR[jobs=2]" ] o.Bench_gate.missing;
  (* metric absent on one side also fails *)
  let no_metric = entries "{\"bench\":\"CCEH\",\"jobs\":2,\"other\":1.0}\n" in
  let o2 =
    Bench_gate.diff ~tolerance:10. ~baseline:(entries "{\"bench\":\"CCEH\",\"jobs\":2,\"ops_per_s\":1.0}\n")
      ~current:no_metric ()
  in
  check "absent metric fails the gate" true (not o2.Bench_gate.passed)

let test_bench_gate_new_benches_ignored () =
  let baseline = entries "{\"bench\":\"CCEH\",\"jobs\":2,\"ops_per_s\":1000.0}\n" in
  let current =
    entries
      "{\"bench\":\"CCEH\",\"jobs\":2,\"ops_per_s\":1000.0}\n\
       {\"bench\":\"NEW\",\"jobs\":2,\"ops_per_s\":1.0}\n"
  in
  let o = Bench_gate.diff ~tolerance:0. ~baseline ~current () in
  check "benches without a baseline don't gate" true o.Bench_gate.passed;
  check_int "only baseline entries judged" 1 (List.length o.Bench_gate.verdicts)

let test_bench_gate_load_rejects_empty () =
  let tmp = Filename.temp_file "yashme_bench" ".json" in
  (match Bench_gate.load tmp with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty bench file accepted");
  Sys.remove tmp;
  (match Bench_gate.load tmp with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing bench file accepted")

let () =
  Alcotest.run "telemetry"
    [
      ( "coverage",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_coverage_disabled_is_noop;
          Alcotest.test_case "requires ambient program" `Quick
            test_coverage_requires_ambient_program;
          Alcotest.test_case "accumulates and merges across domains" `Quick
            test_coverage_accumulates_and_merges;
          Alcotest.test_case "ambient restored on exception" `Quick
            test_coverage_ambient_restored_on_exception;
          Alcotest.test_case "per-variant buckets" `Quick
            test_coverage_per_variant;
          Alcotest.test_case "indices label" `Quick test_indices_label;
          Alcotest.test_case "jobs-invariant snapshot" `Slow
            test_coverage_jobs_invariant;
          Alcotest.test_case "counts match engine stats" `Quick
            test_coverage_counts_match_engine;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "report identical with telemetry on" `Quick
            test_report_identical_with_telemetry_on;
        ] );
      ( "progress",
        [
          Alcotest.test_case "inactive is a no-op" `Quick
            test_progress_inactive_is_noop;
          Alcotest.test_case "jsonl stream" `Quick test_progress_jsonl_stream;
          Alcotest.test_case "engine ticks" `Quick test_progress_engine_ticks;
        ] );
      ( "profile",
        [
          Alcotest.test_case "self time" `Quick test_profile_self_time;
          Alcotest.test_case "lanes isolated" `Quick test_profile_lanes_isolated;
          Alcotest.test_case "parse roundtrip" `Quick
            test_profile_parse_roundtrip;
          Alcotest.test_case "rejects empty and garbage" `Quick
            test_profile_rejects_empty_and_garbage;
        ] );
      ( "bench-gate",
        [
          Alcotest.test_case "passes within tolerance" `Quick
            test_bench_gate_passes_within_tolerance;
          Alcotest.test_case "fails on regression" `Quick
            test_bench_gate_fails_on_regression;
          Alcotest.test_case "fails on missing bench" `Quick
            test_bench_gate_fails_on_missing;
          Alcotest.test_case "new benches ignored" `Quick
            test_bench_gate_new_benches_ignored;
          Alcotest.test_case "load rejects empty" `Quick
            test_bench_gate_load_rejects_empty;
        ] );
    ]
