(* Tests for the observe layer: domain-safe counter/histogram merging,
   span nesting, trace export well-formedness, and the determinism
   contract (metrics/tracing on vs off never changes a race report;
   detector counters are identical for every job count). *)

module Metrics = Observe.Metrics
module Attribution = Observe.Attribution
module Trace = Observe.Trace
module Json = Yashme_util.Json
module Span = Observe.Span
module Runner = Pm_harness.Runner
module Report = Pm_harness.Report
module Program = Pm_harness.Program

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

(* Every test leaves the global observe state as it found it:
   disabled, not recording, counters zeroed. *)
let quiesce () =
  Metrics.disable ();
  Metrics.reset ();
  Trace.stop ();
  Trace.clear ()

(* ------------------------------------------------------------------ *)
(* Counters and histograms                                              *)

let test_counter_disabled_is_noop () =
  quiesce ();
  let c = Metrics.counter "test/disabled" in
  Metrics.incr c;
  Metrics.add c 41;
  check_int "writes while disabled don't count" 0 (Metrics.value c)

let test_counter_registration_idempotent () =
  quiesce ();
  Metrics.enable ();
  let a = Metrics.counter "test/idem" in
  let b = Metrics.counter "test/idem" in
  Metrics.incr a;
  Metrics.incr b;
  check_int "same name, same cells" 2 (Metrics.value a);
  check_str "name kept" "test/idem" (Metrics.counter_name b);
  quiesce ()

let test_counter_merge_across_domains () =
  quiesce ();
  Metrics.enable ();
  let c = Metrics.counter "test/domains" in
  let per_domain = 10_000 in
  let worker () =
    for _ = 1 to per_domain do
      Metrics.incr c
    done
  in
  let ds = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  check_int "4 domains x 10k increments merge exactly" (4 * per_domain)
    (Metrics.value c);
  quiesce ()

let test_histogram_merge_across_domains () =
  quiesce ();
  Metrics.enable ();
  let h = Metrics.histogram "test/hist" in
  (* Each domain records 1..100; stats must merge across shards. *)
  let worker () =
    for i = 1 to 100 do
      Metrics.observe h i
    done
  in
  let ds = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  let s = Metrics.hstats h in
  check_int "count" 400 s.Metrics.count;
  check_int "sum" (4 * 5050) s.Metrics.sum;
  check_int "max" 100 s.Metrics.max;
  let buckets = Metrics.bucket_counts h in
  check_int "bucket totals = count" 400
    (Array.fold_left ( + ) 0 buckets);
  (* bucket 1 holds the sample value 1, once per domain *)
  check_int "smallest bucket" 4 buckets.(1);
  quiesce ()

let test_snapshot_diff () =
  quiesce ();
  Metrics.enable ();
  let c = Metrics.counter "test/diffed" in
  let before = Metrics.snapshot () in
  Metrics.add c 7;
  let d = Metrics.diff before (Metrics.snapshot ()) in
  check "only the changed counter appears" true
    (List.for_all (fun (name, v) -> name <> "test/diffed" || v = 7) d
    && List.mem_assoc "test/diffed" d);
  check "zero deltas dropped" false (List.mem_assoc "test/disabled" d);
  quiesce ()

(* ------------------------------------------------------------------ *)
(* Spans and trace export                                               *)

let find_event name events =
  match List.find_opt (fun (e : Trace.event) -> e.Trace.name = name) events with
  | Some e -> e
  | None -> Alcotest.failf "event %S not recorded" name

let test_span_nesting () =
  quiesce ();
  Trace.start ();
  let r =
    Span.with_ ~cat:"test" "outer" (fun () ->
        Span.with_ ~cat:"test" "inner" (fun () -> 42))
  in
  Trace.stop ();
  check_int "span returns the body's value" 42 r;
  let events = Trace.events () in
  let outer = find_event "outer" events in
  let inner = find_event "inner" events in
  check "inner starts within outer" true (inner.Trace.ts_us >= outer.Trace.ts_us);
  check "inner ends within outer" true
    (inner.Trace.ts_us + inner.Trace.dur_us
    <= outer.Trace.ts_us + outer.Trace.dur_us);
  check "same lane" true
    (inner.Trace.tid = outer.Trace.tid && inner.Trace.pid = outer.Trace.pid);
  check "parents sort before children" true
    (let rec precedes = function
       | (e : Trace.event) :: rest ->
           if e.Trace.name = "outer" then true
           else if e.Trace.name = "inner" then false
           else precedes rest
       | [] -> false
     in
     precedes events);
  quiesce ()

let test_span_off_costs_nothing () =
  quiesce ();
  check_int "no recording, no events" 0
    (Span.with_ "unrecorded" (fun () -> Trace.event_count ()));
  quiesce ()

let test_chrome_json_well_formed () =
  quiesce ();
  Trace.start ();
  (* Args exercising every escape path of the emitter. *)
  let tricky = "quote\" backslash\\ newline\n tab\t control\x01" in
  Trace.instant ~cat:"test" ~args:[ ("tricky", tricky) ] "escape me";
  Span.with_ ~cat:"test" "span" (fun () -> ());
  Trace.stop ();
  (match Json.parse (Trace.to_chrome_json ()) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "chrome json rejected: %s" msg);
  (match Json.of_jsonl (fun ev -> Ok ev) (Trace.to_jsonl ()) with
  | Ok evs ->
      let escape_me = function
        | `O ev ->
            List.assoc_opt "name" ev = Some (`S "escape me")
            && List.assoc_opt "args" ev = Some (`O [ ("tricky", `S tricky) ])
        | _ -> false
      in
      check "escaped args decode to the original bytes" true
        (List.exists escape_me evs)
  | Error msg -> Alcotest.failf "jsonl rejected: %s" msg);
  quiesce ()

(* The JSON reader that [yashme trace-lint] uses rejects malformed
   documents and accepts the valid shapes a trace can contain. *)
let test_check_json_rejects_malformed () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed JSON %S" s
      | Error _ -> ())
    [
      ""; "{"; "[1,]"; "{\"a\":}"; "{\"a\" 1}"; "\"unterminated";
      "{\"a\":1} trailing"; "nulll"; "[1 2]"; "{\"bad\\x\":1}";
    ];
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "rejected valid JSON %S: %s" s msg)
    [ "{}"; "[]"; "null"; "-1.5e3"; "{\"a\":[1,true,\"x\\u0041\"]}" ]

(* What [yashme trace-lint] checks for a JSON file. *)
let lint path =
  let data = In_channel.with_open_bin path In_channel.input_all in
  if Filename.check_suffix path ".jsonl" then
    Result.map ignore (Json.of_jsonl (fun _ -> Ok ()) data)
  else Result.map ignore (Json.parse data)

let test_write_and_lint_roundtrip () =
  quiesce ();
  Trace.start ();
  Span.with_ ~cat:"test" ~args:[ ("k", "v") ] "roundtrip" (fun () -> ());
  Trace.stop ();
  let json = Filename.temp_file "yashme-trace" ".json" in
  let jsonl = Filename.temp_file "yashme-trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove json;
      Sys.remove jsonl)
    (fun () ->
      Trace.write json;
      Trace.write jsonl;
      (match lint json with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" json msg);
      match lint jsonl with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" jsonl msg);
  quiesce ()

(* Edge cases of the snapshot/diff algebra. *)

let test_diff_absent_and_negative () =
  quiesce ();
  Metrics.enable ();
  let before = Metrics.snapshot () in
  (* A counter registered only after [before] counts from zero... *)
  let c = Metrics.counter "test/born_late" in
  Metrics.add c 5;
  let d = Metrics.diff before (Metrics.snapshot ()) in
  check_int "name absent from before counts as 0" 5
    (List.assoc "test/born_late" d);
  (* ...and a reset between the snapshots yields a negative delta,
     which diff keeps (only exact zeros are dropped). *)
  let before = Metrics.snapshot () in
  Metrics.reset ();
  let d = Metrics.diff before (Metrics.snapshot ()) in
  check_int "post-reset delta is negative, not dropped" (-5)
    (List.assoc "test/born_late" d);
  check "empty diffs are empty" true (Metrics.diff [] [] = []);
  quiesce ()

let test_histogram_zero_samples () =
  quiesce ();
  Metrics.enable ();
  let h = Metrics.histogram "test/empty_hist" in
  let s = Metrics.hstats h in
  check_int "zero-sample count" 0 s.Metrics.count;
  check_int "zero-sample sum" 0 s.Metrics.sum;
  check_int "zero-sample max" 0 s.Metrics.max;
  check_int "zero-sample buckets all empty" 0
    (Array.fold_left ( + ) 0 (Metrics.bucket_counts h));
  (* a zero-observation histogram contributes nothing to a diff *)
  let before = Metrics.snapshot () in
  let d = Metrics.diff before (Metrics.snapshot ()) in
  check "no delta entries for untouched histogram" false
    (List.exists (fun (name, _) -> name = "test/empty_hist#count") d);
  (* observing 0 is a sample, not a no-op *)
  Metrics.observe h 0;
  let s = Metrics.hstats h in
  check_int "sample of value 0 counted" 1 s.Metrics.count;
  check_int "bucket 0 holds value 0" 1 (Metrics.bucket_counts h).(0);
  quiesce ()

(* Regression: empty/truncated trace files must lint as malformed with
   a positioned error, for both formats.  (A JSONL file of zero lines
   used to lint vacuously Ok.) *)
let test_trace_lint_rejects_empty_and_truncated () =
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  List.iter
    (fun (suffix, content) ->
      let tmp = Filename.temp_file "yashme-lint" suffix in
      Fun.protect
        ~finally:(fun () -> Sys.remove tmp)
        (fun () ->
          let oc = open_out tmp in
          output_string oc content;
          close_out oc;
          match lint tmp with
          | Ok () ->
              Alcotest.failf "accepted %s file with %d byte(s)" suffix
                (String.length content)
          | Error msg ->
              check ("positioned error for " ^ suffix) true
                (starts_with "offset" msg || starts_with "line" msg)))
    [
      (".json", "");
      (".jsonl", "");
      (".json", "  \n \t ");
      (".jsonl", "\n\n");
      (* truncated mid-event: a crash while writing must not lint *)
      (".json", "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\"");
      (".jsonl", "{\"name\":\"x\",\"ph\":\"X\"}\n{\"name\":\"y\",");
    ]

(* ------------------------------------------------------------------ *)
(* Log levels                                                           *)

let test_log_levels () =
  quiesce ();
  let saved = Observe.Log.level () in
  Fun.protect
    ~finally:(fun () -> Observe.Log.set_level saved)
    (fun () ->
      Observe.Log.set_level Observe.Log.Debug;
      check "debug threshold" true (Observe.Log.level () = Observe.Log.Debug);
      check "debug is not quiet" false (Observe.Log.quiet ());
      (* --quiet compatibility aliases *)
      Observe.Log.set_quiet true;
      check "set_quiet true = Off" true (Observe.Log.level () = Observe.Log.Off);
      check "off is quiet" true (Observe.Log.quiet ());
      Observe.Log.set_quiet false;
      check "set_quiet false restores Warn" true
        (Observe.Log.level () = Observe.Log.Warn);
      (* parsing *)
      List.iter
        (fun (s, expect) ->
          check ("parse " ^ s) true (Observe.Log.level_of_string s = expect))
        [
          ("off", Some Observe.Log.Off); ("quiet", Some Observe.Log.Off);
          ("warn", Some Observe.Log.Warn); ("warning", Some Observe.Log.Warn);
          ("info", Some Observe.Log.Info); ("debug", Some Observe.Log.Debug);
          ("verbose", None);
        ];
      check_str "to_string roundtrip" "info"
        (Observe.Log.level_to_string Observe.Log.Info);
      (* the trace mirror fires regardless of the stderr threshold *)
      Observe.Log.set_level Observe.Log.Off;
      Trace.start ();
      Observe.Log.warn "suppressed on stderr";
      Observe.Log.info "also mirrored";
      Observe.Log.debug "this too";
      Trace.stop ();
      let logged name =
        List.exists
          (fun (e : Trace.event) ->
            e.Trace.name = name && e.Trace.cat = "log")
          (Trace.events ())
      in
      check "warning mirrored while Off" true (logged "warning");
      check "info mirrored while Off" true (logged "info");
      check "debug mirrored while Off" true (logged "debug"));
  quiesce ()

(* ------------------------------------------------------------------ *)
(* Determinism contract                                                 *)

let test_report_identical_with_observability_on () =
  quiesce ();
  let off = Report.to_string (Runner.model_check ~jobs:2 toy) in
  Metrics.enable ();
  Trace.start ();
  let on = Report.to_string (Runner.model_check ~jobs:2 toy) in
  Trace.stop ();
  Metrics.disable ();
  check_str "race report byte-identical with metrics+trace on" off on;
  check "a parallel run actually recorded spans" true (Trace.event_count () > 0);
  quiesce ()

let detector_counters () =
  List.filter
    (fun (name, _) -> String.length name >= 9 && String.sub name 0 9 = "detector/")
    (Metrics.snapshot ())

let test_detector_counters_jobs_invariant () =
  quiesce ();
  Metrics.enable ();
  let p = Pm_benchmarks.Cceh.program in
  ignore (Runner.model_check ~jobs:1 p);
  let j1 = detector_counters () in
  Metrics.reset ();
  ignore (Runner.model_check ~jobs:4 p);
  let j4 = detector_counters () in
  check "counters recorded" true
    (List.exists (fun (_, v) -> v > 0) j1);
  check "detector counters identical for jobs=1 and jobs=4" true (j1 = j4);
  quiesce ()

(* ------------------------------------------------------------------ *)
(* Registry model: random charge scripts vs a single-threaded model     *)

(* One charge against a named cell.  Counter and center deltas may be
   negative; histogram samples are not (the [observe] contract). *)
type charge =
  | Add of string * int
  | Sample of string * int
  | Charge of string * int * int * int  (* center, count, units, wall *)

(* Pool centers with fixed labels (the first registration fixes them);
   [fresh] centers and counters are registered by the after-script
   only, so they are absent from the before-snapshots. *)
let model_centers =
  [ ("model/k0", "ops", false); ("model/k1", "", false); ("model/k2", "words", true) ]

let center_labels name =
  match List.find_opt (fun (n, _, _) -> n = name) model_centers with
  | Some (_, units, volatile) -> (units, volatile)
  | None -> ("bytes", false)

let center_of name =
  let units, volatile_units = center_labels name in
  Attribution.center ~units ~volatile_units name

let run_charge = function
  | Add (n, d) -> Metrics.add (Metrics.counter n) d
  | Sample (n, v) -> Metrics.observe (Metrics.histogram n) v
  | Charge (n, count, units, wall_us) ->
      Attribution.charge (center_of n) ~count ~units ~wall_us

let gen_charge ~fresh =
  QCheck.Gen.(
    let delta = int_range (-50) 50 in
    let counter = oneofl [ "model/c0"; "model/c1"; "model/c2"; fresh ^ "/c" ] in
    let center =
      oneofl ("model/k0" :: "model/k1" :: "model/k2" :: [ fresh ^ "/k" ])
    in
    frequency
      [
        (3, map2 (fun n d -> Add (n, d)) counter delta);
        ( 2,
          map2 (fun n v -> Sample (n, v)) (oneofl [ "model/h0"; "model/h1" ])
            (int_bound 5000) );
        ( 3,
          map3
            (fun n (c, u) w -> Charge (n, c, u, w))
            center (pair delta delta) (int_range (-5) 500) );
      ])

let fresh_names = ref 0

(* (before-script, after-script, domains for the after-script). *)
let arb_scripts =
  let gen =
    QCheck.Gen.(
      (* A generator is a function of the random state: each draw
         names a new fresh pair. *)
      let* fresh =
       fun _ ->
        incr fresh_names;
        Printf.sprintf "model/fresh%d" !fresh_names
      in
      let script = list_size (int_bound 40) (gen_charge ~fresh) in
      triple script script (int_range 1 4))
  in
  let print_charge = function
    | Add (n, d) -> Printf.sprintf "add %s %d" n d
    | Sample (n, v) -> Printf.sprintf "sample %s %d" n v
    | Charge (n, c, u, w) -> Printf.sprintf "charge %s %d/%d/%d" n c u w
  in
  QCheck.make gen
    ~print:(fun (a, b, d) ->
      Printf.sprintf "before [%s] after [%s] on %d domain(s)"
        (String.concat "; " (List.map print_charge a))
        (String.concat "; " (List.map print_charge b))
        d)

(* The after-script dealt round-robin over [domains] domains: the
   calling one plus at most three spawned. *)
let run_split domains script =
  let chunk k = List.filteri (fun i _ -> i mod domains = k) script in
  let spawned =
    List.init (domains - 1) (fun k ->
        let c = chunk (k + 1) in
        Domain.spawn (fun () -> List.iter run_charge c))
  in
  List.iter run_charge (chunk 0);
  List.iter Domain.join spawned

(* A histogram's maximum over a script, floored at 0 like its cell. *)
let model_max script name =
  List.fold_left
    (fun m -> function Sample (n, v) when n = name -> max m v | _ -> m)
    0 script

(* What the diffs must be, from a plain Hashtbl fold over the scripts:
   counters and centers sum the after-script's deltas (a center's wall
   only from positive charges, zero-count and zero-unit charges adding
   nothing); a histogram contributes #count and #sum but no #max row,
   since a running maximum has no window difference. *)
let model_diffs after =
  let sums : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let find tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
  let bump k d = Hashtbl.replace sums k (d + find sums k) in
  List.iter
    (function
      | Add (n, d) -> bump n d
      | Sample (n, v) ->
          bump (n ^ "#count") 1;
          bump (n ^ "#sum") v
      | Charge (n, c, u, w) ->
          bump (n ^ "\000count") c;
          bump (n ^ "\000units") u;
          if w > 0 then bump (n ^ "\000wall") w)
    after;
  let get = find sums in
  let names f = List.sort_uniq compare (List.filter_map f after) in
  let metrics =
    names (function
      | Add (n, _) -> Some [ n ]
      | Sample (n, _) -> Some [ n ^ "#count"; n ^ "#sum" ]
      | Charge _ -> None)
    |> List.concat |> List.sort_uniq compare
    |> List.filter_map (fun k -> if get k = 0 then None else Some (k, get k))
  in
  let centers =
    names (function Charge (n, _, _, _) -> Some n | Add _ | Sample _ -> None)
    |> List.filter_map (fun n ->
           let count = get (n ^ "\000count")
           and units = get (n ^ "\000units")
           and wall = get (n ^ "\000wall") in
           if count = 0 && units = 0 && wall = 0 then None
           else
             let units_label, volatile = center_labels n in
             Some
               {
                 Attribution.r_center = n;
                 r_units_label = units_label;
                 r_volatile_units = volatile;
                 r_count = count;
                 r_units = units;
                 r_wall_us = wall;
               })
  in
  (metrics, centers)

let prop_registry_matches_model (before, after, domains) =
  quiesce ();
  Attribution.disable ();
  Attribution.reset ();
  (* Pool cells exist before any script runs, as instrumentation sites'
     do; fresh names are registered by the scripts themselves. *)
  List.iter (fun (n, _, _) -> ignore (center_of n)) model_centers;
  Metrics.enable ();
  Attribution.enable ();
  List.iter run_charge before;
  let m0 = Metrics.snapshot () and a0 = Attribution.snapshot () in
  run_split domains after;
  let m1 = Metrics.snapshot () in
  let md = Metrics.diff m0 m1
  and ad = Attribution.diff a0 (Attribution.snapshot ()) in
  quiesce ();
  Attribution.disable ();
  Attribution.reset ();
  let expect_m, expect_a = model_diffs after in
  let show m = String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) m) in
  if md <> expect_m then
    QCheck.Test.fail_reportf "metrics diff %s <> model %s" (show md) (show expect_m);
  (* The whole-run snapshot (the registry was reset before [before])
     carries each histogram's true maximum. *)
  List.iter
    (fun h ->
      let got = Option.value ~default:0 (List.assoc_opt (h ^ "#max") m1)
      and want = model_max (before @ after) h in
      if got <> want then
        QCheck.Test.fail_reportf "snapshot %s#max %d <> model %d" h got want)
    [ "model/h0"; "model/h1" ];
  if ad <> expect_a then
    QCheck.Test.fail_reportf "attribution diff %s <> model %s"
      (Attribution.to_string ad) (Attribution.to_string expect_a);
  true

let test_registry_model =
  QCheck.Test.make ~name:"charge scripts match a Hashtbl model"
    ~count:150 arb_scripts prop_registry_matches_model

let () =
  Alcotest.run "observe"
    [
      ( "metrics",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_counter_disabled_is_noop;
          Alcotest.test_case "registration idempotent" `Quick
            test_counter_registration_idempotent;
          Alcotest.test_case "counter merge across 4 domains" `Quick
            test_counter_merge_across_domains;
          Alcotest.test_case "histogram merge across 4 domains" `Quick
            test_histogram_merge_across_domains;
          Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff;
          Alcotest.test_case "diff absent names and negatives" `Quick
            test_diff_absent_and_negative;
          Alcotest.test_case "zero-sample histograms" `Quick
            test_histogram_zero_samples;
        ] );
      ("registry", [ QCheck_alcotest.to_alcotest test_registry_model ]);
      ( "log",
        [ Alcotest.test_case "levels and aliases" `Quick test_log_levels ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "spans free when off" `Quick
            test_span_off_costs_nothing;
          Alcotest.test_case "chrome/jsonl well-formed" `Quick
            test_chrome_json_well_formed;
          Alcotest.test_case "json checker rejects malformed" `Quick
            test_check_json_rejects_malformed;
          Alcotest.test_case "write + lint roundtrip" `Quick
            test_write_and_lint_roundtrip;
          Alcotest.test_case "lint rejects empty/truncated files" `Quick
            test_trace_lint_rejects_empty_and_truncated;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "report identical with observability on" `Quick
            test_report_identical_with_observability_on;
          Alcotest.test_case "detector counters jobs-invariant" `Slow
            test_detector_counters_jobs_invariant;
        ] );
    ]
