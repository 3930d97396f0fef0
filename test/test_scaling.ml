(* Tests for the scaling observatory: per-domain timeline
   reconstruction (busy/wait/idle classification, edge cases, ASCII
   rendering, idle-gap histograms), the jobs-sweep analyzer (Amdahl
   fit, loss decomposition, the non-timing-projection determinism
   check) and the multi-metric scaling gate.  The crux contract is
   asserted end to end on a real engine run: the non-timing projection
   of a sweep level is byte-identical at jobs=1 and jobs=4. *)

module Timeline = Observe.Timeline
module Scaling = Observe.Scaling
module Ledger = Observe.Ledger
module Trace = Observe.Trace
module Bench_gate = Pm_corpus.Bench_gate
module Json = Yashme_util.Json
module Runner = Pm_harness.Runner
module Report = Pm_harness.Report

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Synthetic traces                                                     *)

let span ?(cat = "scenario") ?(pid = 0) ~tid ~ts ~dur name =
  {
    Trace.name;
    cat;
    ph = Trace.Complete;
    ts_us = ts;
    dur_us = dur;
    pid;
    tid;
    args = [];
  }

(* An engine-shaped 2-lane trace: workers alive [0,100], lane 0 busy
   [10,40] and [50,80], lane 1 busy [20,60]; plus the batch span on the
   main lane (cat engine, not a work span). *)
let engine_trace =
  [
    span ~cat:"engine" ~tid:0 ~ts:0 ~dur:100 "worker";
    span ~tid:0 ~ts:10 ~dur:30 "s0";
    span ~tid:0 ~ts:50 ~dur:30 "s1";
    span ~cat:"engine" ~tid:1 ~ts:0 ~dur:100 "worker";
    span ~tid:1 ~ts:20 ~dur:40 "s2";
    span ~cat:"engine" ~tid:0 ~ts:0 ~dur:100 "batch";
  ]

let reconstruct events =
  match Timeline.of_events events with
  | Ok t -> t
  | Error msg -> Alcotest.failf "of_events: %s" msg

let lane t ~tid =
  match
    List.find_opt (fun l -> l.Timeline.tl_tid = tid) t.Timeline.t_lanes
  with
  | Some l -> l
  | None -> Alcotest.failf "no lane tid=%d" tid

let test_timeline_classification () =
  let t = reconstruct engine_trace in
  check_int "two lanes" 2 (List.length t.Timeline.t_lanes);
  check_int "makespan" 100 t.Timeline.t_makespan_us;
  let l0 = lane t ~tid:0 and l1 = lane t ~tid:1 in
  check_int "lane0 busy" 60 l0.Timeline.tl_busy_us;
  check_int "lane0 wait" 40 l0.Timeline.tl_wait_us;
  check_int "lane0 idle" 0 l0.Timeline.tl_idle_us;
  check_int "lane0 spans" 2 l0.Timeline.tl_spans;
  check_int "lane1 busy" 40 l1.Timeline.tl_busy_us;
  check_int "lane1 wait" 60 l1.Timeline.tl_wait_us;
  check_int "critical path" 60 t.Timeline.t_critical_path_us;
  check "straggler is lane 0 (busy ends at 80 vs 60)" true
    (t.Timeline.t_straggler = Some (0, 0));
  check_int "straggler tail" 20 t.Timeline.t_straggler_tail_us;
  (* 10us gap between lane0's busy segments *)
  check "lane0 gaps" true (l0.Timeline.tl_gaps = [ 10 ]);
  check_int "lane0 max gap" 10 (Timeline.max_gap_us l0);
  check "gap histogram bucket <=16us" true
    (Timeline.gap_histogram l0 = [ (16, 1) ]);
  check_str "gap label" "<=16us:1" (Timeline.histogram_label l0);
  check_str "gap-free label" "-" (Timeline.histogram_label l1)

let test_timeline_out_of_order () =
  (* The same trace, reversed and shuffled: reconstruction must not
     depend on event order. *)
  let t = reconstruct engine_trace in
  let t' = reconstruct (List.rev engine_trace) in
  check "order-independent" true
    (List.map
       (fun l -> (l.Timeline.tl_tid, l.Timeline.tl_busy_us, l.Timeline.tl_wait_us))
       t.Timeline.t_lanes
    = List.map
        (fun l -> (l.Timeline.tl_tid, l.Timeline.tl_busy_us, l.Timeline.tl_wait_us))
        t'.Timeline.t_lanes)

let test_timeline_zero_length_spans () =
  (* 0-us parent and child spans: counted as work spans, contribute no
     busy time, and never crash the interval algebra. *)
  let events =
    [
      span ~cat:"engine" ~tid:0 ~ts:0 ~dur:50 "worker";
      span ~tid:0 ~ts:10 ~dur:0 "instantaneous";
      span ~tid:0 ~ts:20 ~dur:10 "real";
      span ~cat:"engine" ~tid:0 ~ts:10 ~dur:0 "worker";
    ]
  in
  let t = reconstruct events in
  let l = lane t ~tid:0 in
  check_int "zero-length spans still counted" 2 l.Timeline.tl_spans;
  check_int "busy excludes 0-us spans" 10 l.Timeline.tl_busy_us;
  check_int "wait" 40 l.Timeline.tl_wait_us

let test_timeline_single_lane () =
  let events = [ span ~tid:0 ~ts:5 ~dur:20 "only" ] in
  let t = reconstruct events in
  check_int "one lane" 1 (List.length t.Timeline.t_lanes);
  let l = lane t ~tid:0 in
  (* No worker span: the lane's own extent is the alive cover. *)
  check_int "busy" 20 l.Timeline.tl_busy_us;
  check_int "no wait" 0 l.Timeline.tl_wait_us;
  check "single lane is its own straggler, tail 0" true
    (t.Timeline.t_straggler = Some (0, 0) && t.Timeline.t_straggler_tail_us = 0)

let test_timeline_top_level_fallback () =
  (* A trace with no "scenario"-cat spans: top-level spans become the
     work cover (nested children are not double-counted). *)
  let events =
    [
      span ~cat:"phase" ~tid:0 ~ts:0 ~dur:40 "outer";
      span ~cat:"phase" ~tid:0 ~ts:10 ~dur:10 "inner";
    ]
  in
  let t = reconstruct events in
  let l = lane t ~tid:0 in
  check_int "only the outer span is work" 1 l.Timeline.tl_spans;
  check_int "busy = outer extent" 40 l.Timeline.tl_busy_us

let test_timeline_empty_rejected () =
  (match Timeline.of_events [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty trace accepted");
  (* Instants alone are not spans either. *)
  match
    Timeline.of_events
      [ { (span ~tid:0 ~ts:0 ~dur:0 "i") with Trace.ph = Trace.Instant } ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "instants-only trace accepted"

let test_timeline_ascii () =
  let t = reconstruct engine_trace in
  let chart = Timeline.ascii ~width:20 t in
  check "chart has busy cells" true (String.contains chart '#');
  check "chart has wait cells" true (String.contains chart '.');
  check "legend present" true
    (let re = Str.regexp_string "pool utilization" in
     try ignore (Str.search_forward re chart 0); true
     with Not_found -> false);
  check_int "one row per lane + legend" 3
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' chart)))

(* ------------------------------------------------------------------ *)
(* Jobs-sweep analysis                                                  *)

let cost center ?(units = 0) wall_us =
  { Ledger.c_center = center; c_count = 1; c_units = units; c_wall_us = wall_us }

let level ?(scenarios = 28) ?(races = 4) ?(cost = []) ~jobs ~elapsed_s () =
  {
    Ledger.e_version = Ledger.version;
    e_run = "toy";
    e_ts = 0.;
    e_program = "toy";
    e_variant = "strict-tso";
    e_mode = "mc";
    e_jobs = jobs;
    e_seed = 0;
    e_scenarios = scenarios;
    e_completed = scenarios;
    e_faulted = 0;
    e_diverged = 0;
    e_executions = 2 * scenarios;
    e_ops = 100 * scenarios;
    e_races = races;
    e_benign = 0;
    e_raw_races = races;
    e_recovery_failures = 0;
    e_witnesses = races;
    e_elapsed_s = elapsed_s;
    e_cpu_s = elapsed_s;
    e_metrics_digest = "";
    e_coverage_digest = "";
    e_cost = cost;
  }

let analyze levels =
  match Scaling.analyze ~program:"toy" levels with
  | Ok a -> a
  | Error msg -> Alcotest.failf "analyze: %s" msg

let test_scaling_perfect () =
  (* T(n) = T1/n: speedup n, efficiency 1, serial fraction 0. *)
  let a =
    analyze
      [ level ~jobs:1 ~elapsed_s:1.0 (); level ~jobs:2 ~elapsed_s:0.5 ();
        level ~jobs:4 ~elapsed_s:0.25 () ]
  in
  let _, d4 = List.nth a.Scaling.a_levels 2 in
  check "speedup 4 at jobs=4" true (abs_float (d4.Scaling.d_speedup -. 4.) < 1e-9);
  check "efficiency 1" true (abs_float (d4.Scaling.d_efficiency -. 1.) < 1e-9);
  (match a.Scaling.a_serial_fraction with
  | Some s -> check "serial fraction ~0" true (s < 1e-9)
  | None -> Alcotest.fail "no serial fraction fitted")

let test_scaling_flat () =
  (* T(n) = T1: no parallelism at all, serial fraction 1. *)
  let a =
    analyze
      [ level ~jobs:1 ~elapsed_s:1.0 (); level ~jobs:4 ~elapsed_s:1.0 () ]
  in
  (match a.Scaling.a_serial_fraction with
  | Some s -> check "serial fraction ~1" true (abs_float (s -. 1.) < 1e-9)
  | None -> Alcotest.fail "no serial fraction fitted");
  let _, d4 = List.nth a.Scaling.a_levels 1 in
  check "lost domain-seconds" true (abs_float (d4.Scaling.d_lost_s -. 3.) < 1e-9)

let test_scaling_single_level () =
  let a = analyze [ level ~jobs:2 ~elapsed_s:0.5 () ] in
  check "single level: no fit" true (a.Scaling.a_serial_fraction = None);
  check_int "reference is itself" 2 a.Scaling.a_reference_jobs;
  check "analyze [] errors" true
    (Result.is_error (Scaling.analyze ~program:"toy" []));
  check "duplicate jobs rejected" true
    (Result.is_error
       (Scaling.analyze ~program:"toy"
          [ level ~jobs:2 ~elapsed_s:0.5 (); level ~jobs:2 ~elapsed_s:0.6 () ]))

let test_scaling_loss_centers () =
  let slow =
    level ~jobs:4 ~elapsed_s:1.0
      ~cost:
        [ cost "engine/merge" 100_000; cost "engine/queue_wait" 2_000_000;
          cost "px86/snapshot_copy" 500_000 ]
      ()
  in
  let a = analyze [ level ~jobs:1 ~elapsed_s:1.0 (); slow ] in
  (match a.Scaling.a_loss_centers with
  | (top_name, top_s) :: _ ->
      check_str "queue-wait dominates" "engine/queue_wait" top_name;
      check "2 seconds charged" true (abs_float (top_s -. 2.) < 1e-9)
  | [] -> Alcotest.fail "no loss centers");
  check "residual labelled other" true
    (List.mem_assoc "other" a.Scaling.a_loss_centers)

let test_scaling_check () =
  let l1 = level ~jobs:1 ~elapsed_s:1.0 () in
  let l4 = level ~jobs:4 ~elapsed_s:0.9 () in
  check "matching projections pass" true
    (Scaling.check ~program:"toy" [ l1; l4 ] = Ok ());
  let diverged = { l4 with Ledger.e_races = 5 } in
  (match Scaling.check ~program:"toy" [ l1; diverged ] with
  | Error msg ->
      check "divergence names the field" true
        (let re = Str.regexp_string "races" in
         try ignore (Str.search_forward re msg 0); true
         with Not_found -> false)
  | Ok () -> Alcotest.fail "diverging races passed the check");
  (* Timing may differ arbitrarily without tripping the check. *)
  let slow =
    { l4 with Ledger.e_elapsed_s = 99.; e_cost = [ cost "gc/minor" ~units:123 0 ] }
  in
  check "timing divergence tolerated" true
    (Scaling.check ~program:"toy" [ l1; slow ] = Ok ())

let test_scaling_fields_projection () =
  let l = level ~jobs:2 ~elapsed_s:0.5 () in
  let a = analyze [ l ] in
  let pair = List.hd a.Scaling.a_levels in
  let full = Scaling.fields ~program:"toy" pair in
  let proj = Scaling.fields ~timing:false ~program:"toy" pair in
  (* The projection is a strict prefix of the full row. *)
  check_int "projection size" 10 (List.length proj);
  check "projection is a prefix" true
    (List.filteri (fun i _ -> i < List.length proj) full = proj);
  check "full row carries timing" true (List.mem_assoc "efficiency" full);
  check "projection does not" true (not (List.mem_assoc "elapsed_s" proj));
  (* Both encode as valid flat JSON. *)
  check "full encodes" true (Result.is_ok (Json.decode_obj (Json.encode_obj full)));
  check "proj encodes" true (Result.is_ok (Json.decode_obj (Json.encode_obj proj)))

(* ------------------------------------------------------------------ *)
(* The scaling gate                                                     *)

let entry ~bench ~jobs ~speedup ~efficiency =
  {
    Bench_gate.e_key = Printf.sprintf "%s[jobs=%d]" bench jobs;
    e_fields =
      [ ("bench", `S bench); ("jobs", `I jobs); ("speedup", `F speedup);
        ("efficiency", `F efficiency) ];
  }

let test_gate_pass_and_regress () =
  let baseline = [ entry ~bench:"CCEH" ~jobs:2 ~speedup:1.5 ~efficiency:0.75 ] in
  let same =
    Bench_gate.diff_metrics ~metrics:Bench_gate.scaling_metrics ~tolerance:10.
      ~baseline ~current:baseline ()
  in
  check "self-compare passes" true same.Bench_gate.passed;
  check_int "one verdict per metric" 2 (List.length same.Bench_gate.verdicts);
  let worse = [ entry ~bench:"CCEH" ~jobs:2 ~speedup:1.0 ~efficiency:0.5 ] in
  let o =
    Bench_gate.diff_metrics ~metrics:Bench_gate.scaling_metrics ~tolerance:10.
      ~baseline ~current:worse ()
  in
  check "collapse fails" true (not o.Bench_gate.passed);
  check_int "both metrics regressed" 2
    (List.length
       (List.filter (fun v -> v.Bench_gate.v_regressed) o.Bench_gate.verdicts));
  (* A better current never regresses a higher-is-better metric. *)
  let better = [ entry ~bench:"CCEH" ~jobs:2 ~speedup:2.0 ~efficiency:1.0 ] in
  check "improvement passes" true
    (Bench_gate.diff_metrics ~metrics:Bench_gate.scaling_metrics ~tolerance:10.
       ~baseline ~current:better ())
      .Bench_gate.passed

let test_gate_missing_metric () =
  let baseline = [ entry ~bench:"CCEH" ~jobs:2 ~speedup:1.5 ~efficiency:0.75 ] in
  let no_eff =
    [ { (List.hd baseline) with
        Bench_gate.e_fields =
          [ ("bench", `S "CCEH"); ("jobs", `I 2); ("speedup", `F 1.5) ];
      } ]
  in
  let o =
    Bench_gate.diff_metrics ~metrics:Bench_gate.scaling_metrics ~tolerance:10.
      ~baseline ~current:no_eff ()
  in
  check "missing metric fails" true (not o.Bench_gate.passed);
  check "named key.metric" true
    (List.mem "CCEH[jobs=2].efficiency" o.Bench_gate.missing);
  (* A missing row fails too. *)
  let o =
    Bench_gate.diff_metrics ~metrics:Bench_gate.scaling_metrics ~tolerance:10.
      ~baseline ~current:[] ()
  in
  check "missing bench fails" true (not o.Bench_gate.passed)

(* ------------------------------------------------------------------ *)
(* The crux, end to end: jobs 1 vs 4 non-timing byte-identity           *)

let run_level ~jobs p =
  Observe.Attribution.enable ();
  let att0 = Observe.Attribution.snapshot () in
  let o = Runner.model_check_outcome ~jobs p in
  let att = Observe.Attribution.diff att0 (Observe.Attribution.snapshot ()) in
  Observe.Attribution.disable ();
  let ex = Pm_corpus.Witness.of_outcome ~program:p.Pm_harness.Program.name o in
  Pm_corpus.Ledger_store.of_report ~run:"sweep" ~mode:"mc" ~seed:0
    ~witnesses:(List.length ex.Pm_corpus.Witness.witnesses)
    ~stats:o.Runner.o_stats
    (Report.with_attribution o.Runner.o_report att)

let test_projection_jobs_identity () =
  let p = Pm_benchmarks.Memcached.program in
  let l1 = run_level ~jobs:1 p in
  let l4 = run_level ~jobs:4 p in
  (match Scaling.check ~program:"Memcached" [ l1; l4 ] with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "projection diverged: %s" msg);
  (* Byte-level: encode both projections minus the jobs field. *)
  let zero =
    { Scaling.d_speedup = 0.; d_efficiency = 0.; d_serial_fraction = None;
      d_lost_s = 0. }
  in
  let line l =
    Json.encode_obj
      (List.filter
         (fun (k, _) -> k <> "jobs")
         (Scaling.fields ~timing:false ~program:"Memcached" (l, zero)))
  in
  check_str "byte-identical projection at jobs 1 and 4" (line l1) (line l4);
  check "the run found races" true (l1.Ledger.e_races > 0)

let () =
  Alcotest.run "scaling"
    [
      ( "timeline",
        [
          Alcotest.test_case "busy/wait/idle classification" `Quick
            test_timeline_classification;
          Alcotest.test_case "out-of-order events" `Quick
            test_timeline_out_of_order;
          Alcotest.test_case "0-us parent/child spans" `Quick
            test_timeline_zero_length_spans;
          Alcotest.test_case "single-lane trace" `Quick test_timeline_single_lane;
          Alcotest.test_case "top-level fallback" `Quick
            test_timeline_top_level_fallback;
          Alcotest.test_case "empty trace rejected" `Quick
            test_timeline_empty_rejected;
          Alcotest.test_case "ascii chart" `Quick test_timeline_ascii;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "perfect scaling" `Quick test_scaling_perfect;
          Alcotest.test_case "flat scaling" `Quick test_scaling_flat;
          Alcotest.test_case "single level" `Quick test_scaling_single_level;
          Alcotest.test_case "loss centers" `Quick test_scaling_loss_centers;
          Alcotest.test_case "determinism check" `Quick test_scaling_check;
          Alcotest.test_case "field projection" `Quick
            test_scaling_fields_projection;
        ] );
      ( "gate",
        [
          Alcotest.test_case "pass and regress" `Quick test_gate_pass_and_regress;
          Alcotest.test_case "missing metric" `Quick test_gate_missing_metric;
        ] );
      ( "engine",
        [
          Alcotest.test_case "jobs 1v4 projection byte-identity" `Quick
            test_projection_jobs_identity;
        ] );
    ]
