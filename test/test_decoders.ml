(* Decoder fuzzing over real emitted files.

   Each artifact below is written by its real emitter — a check-all
   witness corpus, a run ledger, a soak manifest, bench rows,
   attribution rows, a Chrome trace and a JSONL trace — and then
   damaged:

   - truncated at a random byte: the loader must return a positioned
     [Error] ("line N", "offset N" or "path:N:"), unless the cut falls
     on a line boundary of a line-oriented file, which leaves whole,
     valid lines;
   - a random byte overwritten with a control character (never written
     raw by any emitter, and not JSON whitespace): always a positioned
     [Error];
   - a random byte overwritten with any byte: [Ok] or a positioned
     [Error].

   No loader may raise on any of them. *)

module Json = Yashme_util.Json
module Trace = Observe.Trace
module Attribution = Observe.Attribution
module Ledger = Observe.Ledger
module Profile = Observe.Profile
module Runner = Pm_harness.Runner
module Scenario = Pm_harness.Scenario
module Soak = Pm_harness.Soak
module Engine = Pm_harness.Engine
module Registry = Pm_benchmarks.Registry
module Corpus = Pm_corpus.Corpus
module Witness = Pm_corpus.Witness
module Ledger_store = Pm_corpus.Ledger_store
module Soak_store = Pm_corpus.Soak_store
module Bench_gate = Pm_corpus.Bench_gate

let check = Alcotest.(check bool)

let read path = In_channel.with_open_bin path In_channel.input_all

let write path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* Write [data] to a temporary with [suffix], pass its path to [f]. *)
let with_file ~suffix data f =
  let tmp = Filename.temp_file "yashme_fuzz" suffix in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      write tmp data;
      f tmp)

(* ------------------------------------------------------------------ *)
(* The artifacts                                                        *)

type artifact = {
  name : string;
  suffix : string;  (** selects the trace format for [Profile] *)
  line_oriented : bool;  (** whole lines may be cut off harmlessly *)
  bytes : string;
  load : string -> (unit, string) result;  (** the loader, on a path *)
}

let ignore_ok r = Result.map ignore r

let corpus_bytes () =
  let witnesses, _ =
    Corpus.merge
      (List.map
         (fun (p : Pm_harness.Program.t) ->
           (Witness.of_outcome ~program:p.Pm_harness.Program.name
              (Runner.model_check_outcome ~jobs:1 p))
             .Witness.witnesses)
         Registry.all)
  in
  Corpus.to_jsonl witnesses

(* A CCEH run with attribution and tracing on: its attribution rows,
   and its trace in both export formats. *)
let cceh_run () =
  Attribution.reset ();
  Attribution.enable ();
  Trace.start ();
  let o = Runner.model_check_outcome ~jobs:1 (Registry.find "CCEH") in
  Trace.stop ();
  Attribution.disable ();
  let rows = Attribution.snapshot () in
  Attribution.reset ();
  let trace suffix =
    let tmp = Filename.temp_file "yashme_fuzz_trace" suffix in
    Trace.write tmp;
    let data = read tmp in
    Sys.remove tmp;
    data
  in
  let chrome = trace ".json" and jsonl = trace ".jsonl" in
  Trace.clear ();
  (o, rows, chrome, jsonl)

let ledger_bytes (o : Runner.outcome) rows =
  let s = o.Runner.o_stats in
  let entry run =
    {
      Ledger.e_version = Ledger.version;
      e_run = run;
      e_ts = 1754600000.25;
      e_program = "CCEH";
      e_variant = "strict-tso";
      e_mode = "mc";
      e_jobs = 1;
      e_seed = 1;
      e_scenarios = s.Engine.scenarios;
      e_completed = s.Engine.scenarios;
      e_faulted = s.Engine.faulted;
      e_diverged = s.Engine.diverged;
      e_executions = s.Engine.executions;
      e_ops = s.Engine.ops;
      e_races = 2;
      e_benign = 0;
      e_raw_races = 1452;
      e_recovery_failures = 0;
      e_witnesses = 2;
      e_elapsed_s = s.Engine.elapsed_s;
      e_cpu_s = 0.09;
      e_metrics_digest = "00baadf00dbaad00";
      e_coverage_digest = "00c0ffeec0ffee00";
      e_cost = Ledger.costs_of_rows rows;
    }
  in
  let tmp = Filename.temp_file "yashme_fuzz_ledger" ".jsonl" in
  Sys.remove tmp;
  Ledger_store.append tmp (entry "r1");
  Ledger_store.append tmp (entry "r2");
  let data = read tmp in
  Sys.remove tmp;
  data

(* A budgeted soak run over the memcached stream and the manifest of
   its final checkpoint. *)
let manifest_bytes () =
  let streams = Option.to_list (Registry.find_soak_stream "memcached") in
  let cfg =
    { (Soak.default_config ~streams) with Soak.sk_max_ops = Some 200 }
  in
  let sink = Soak_store.sink () in
  let r = Soak.run ~on_batch:(Soak_store.absorb sink) cfg in
  let tmp = Filename.temp_file "yashme_fuzz_manifest" ".jsonl" in
  Soak_store.save tmp
    {
      Soak_store.m_run = "fuzz";
      m_streams = [ "memcached" ];
      m_seed = 0;
      m_variant = "strict-tso";
      m_jobs = 1;
      m_ops_per_exec = cfg.Soak.sk_ops_per_exec;
      m_fault_budget = cfg.Soak.sk_fault_budget;
      m_max_ops = cfg.Soak.sk_max_ops;
      m_wall_s = Some 3600.;
      m_checkpoint_every = cfg.Soak.sk_checkpoint_every;
      m_corpus = "fuzz.corpus.jsonl";
      m_snapshot = r.Soak.r_snapshot;
      m_witnesses = List.length (Soak_store.witnesses sink);
      m_raw = Soak_store.raw sink;
      m_duplicates = Soak_store.duplicates sink;
      m_coverage_digest = "";
      m_soak_ok = r.Soak.r_ok;
      m_stopped = Soak.stop_reason_label r.Soak.r_reason;
      m_ts = 1754650000.5;
      m_elapsed_s = r.Soak.r_elapsed_s;
    };
  let data = read tmp in
  Sys.remove tmp;
  data

let artifacts =
  lazy
    (let o, rows, chrome, jsonl = cceh_run () in
     let jsonl_reader decode path = ignore_ok (Json.of_jsonl decode (read path)) in
     [
       { name = "check-all corpus"; suffix = ".jsonl"; line_oriented = true;
         bytes = corpus_bytes ();
         load = (fun p -> ignore_ok (Corpus.load p)) };
       { name = "ledger"; suffix = ".jsonl"; line_oriented = true;
         bytes = ledger_bytes o rows;
         load = (fun p -> ignore_ok (Ledger_store.load p)) };
       { name = "soak manifest"; suffix = ".jsonl"; line_oriented = true;
         bytes = manifest_bytes ();
         load = (fun p -> ignore_ok (Soak_store.load p)) };
       (* the committed baseline, as written by bench/main.exe --out *)
       { name = "bench rows"; suffix = ".json"; line_oriented = true;
         bytes = read "../BENCH_engine_throughput.json";
         load = (fun p -> ignore_ok (Bench_gate.of_jsonl (read p))) };
       { name = "attribution rows"; suffix = ".jsonl"; line_oriented = true;
         bytes =
           String.concat ""
             (List.map (fun r -> Json.encode_obj (Attribution.fields r) ^ "\n") rows);
         load =
           jsonl_reader (fun v -> Result.bind (Json.flat v) Attribution.of_fields) };
       { name = "chrome trace"; suffix = ".json"; line_oriented = false;
         bytes = chrome; load = (fun p -> ignore_ok (Profile.parse_file p)) };
       { name = "jsonl trace"; suffix = ".jsonl"; line_oriented = true;
         bytes = jsonl; load = (fun p -> ignore_ok (Profile.parse_file p)) };
       { name = "json reader"; suffix = ".jsonl"; line_oriented = true;
         bytes = jsonl; load = jsonl_reader (fun v -> Ok v) };
     ])

let positioned e =
  Str.string_match
    (Str.regexp ".*\\(line [0-9]+: \\|offset [0-9]+: \\|:[0-9]+: \\)")
    e 0

let load a data =
  match with_file ~suffix:a.suffix data a.load with
  | r -> r
  | exception exn ->
      Alcotest.failf "%s: loader raised %s" a.name (Printexc.to_string exn)

let test_pristine_files_load () =
  List.iter
    (fun a ->
      check (a.name ^ " is non-empty") true (String.length a.bytes > 0);
      match load a a.bytes with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: pristine file rejected: %s" a.name e)
    (Lazy.force artifacts)

(* ------------------------------------------------------------------ *)
(* Damage properties                                                    *)

(* (artifact index, position seed, byte) *)
let damage_arb =
  QCheck.make
    ~print:(fun (i, p, c) -> Printf.sprintf "(artifact %d, pos %d, byte %C)" i p c)
    QCheck.Gen.(triple (int_bound 1000) (int_bound max_int) char)

let pick (i, p, c) =
  let arts = Lazy.force artifacts in
  let a = List.nth arts (i mod List.length arts) in
  (a, p mod String.length a.bytes, c)

let overwrite s pos c = String.mapi (fun i x -> if i = pos then c else x) s

let prop_truncation =
  QCheck.Test.make ~name:"truncation is a positioned error" ~count:400 damage_arb
    (fun d ->
      let a, k, _ = pick d in
      let s = a.bytes in
      let whole =
        if a.line_oriented then k > 0 && (s.[k - 1] = '\n' || s.[k] = '\n')
        else String.trim (String.sub s 0 k) = String.trim s
      in
      match load a (String.sub s 0 k) with
      | Ok () -> whole
      | Error e -> (not whole) && positioned e)

(* Control characters other than JSON whitespace (\t \n \r). *)
let control c =
  match Char.code c land 0x1f with 0x09 | 0x0a | 0x0d -> '\001' | n -> Char.chr n

let prop_control_overwrite =
  QCheck.Test.make ~name:"control-byte overwrite is a positioned error"
    ~count:400 damage_arb (fun d ->
      let a, pos, c = pick d in
      match load a (overwrite a.bytes pos (control c)) with
      | Ok () -> false
      | Error e -> positioned e)

let prop_byte_overwrite =
  QCheck.Test.make ~name:"any-byte overwrite never raises" ~count:400 damage_arb
    (fun d ->
      let a, pos, c = pick d in
      match load a (overwrite a.bytes pos c) with
      | Ok () -> true
      | Error e -> positioned e)

(* A hostile trace nesting a million arrays deep is rejected at the
   nesting bound, quickly, instead of recursing through all of it. *)
let test_profile_deep_nesting () =
  with_file ~suffix:".json"
    ("{\"traceEvents\":" ^ String.make 1_000_000 '[')
    (fun path ->
      match Profile.parse_file path with
      | Ok _ -> Alcotest.fail "accepted a 1M-deep trace"
      | Error e ->
          check ("nesting bound: " ^ e) true
            (Str.string_match (Str.regexp "offset [0-9]+: nesting deeper than") e 0))

let () =
  Alcotest.run "decoders"
    [
      ( "emitted files",
        [
          Alcotest.test_case "pristine files load" `Quick test_pristine_files_load;
          Alcotest.test_case "profile rejects deep nesting" `Quick
            test_profile_deep_nesting;
        ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ prop_truncation; prop_control_overwrite; prop_byte_overwrite ] );
    ]
