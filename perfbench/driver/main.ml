(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload in-process for about S seconds and prints, as the
   last line of standard output, one JSON object
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones, measured with no span recording;
   with --trace 1 they are the per-layer ones, from a run that
   alternates untraced passes with passes whose layer calls are
   wrapped in spans, followed by probes that re-run a seed-chosen
   sample of scenarios layer by layer.  perfbench/NOTES.md explains
   every workload and metric. *)

open Perfbench
module Engine = Pm_harness.Engine
module Runner = Pm_harness.Runner
module Scenario = Pm_harness.Scenario
module Report = Pm_harness.Report
module Program = Pm_harness.Program
module Soak = Pm_harness.Soak
module Executor = Pm_runtime.Executor
module Registry = Pm_benchmarks.Registry
module Soak_store = Pm_corpus.Soak_store

let now = Clock.now

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Whole-process minor words: [Gc.quick_stat] folds in the counts of
   domains that have terminated, and every engine batch joins its
   workers before returning. *)
let process_minor_words () = (Gc.quick_stat ()).Gc.minor_words

let reference_path = "perfbench/reference/verdicts.txt"

(* Every workload runs the engine with one worker domain.  On a shared
   2-vCPU host the jobs=2 wall time measured the host, not the program:
   pass times doubled whenever one vCPU was descheduled while CPU time
   rose by a fifth (perfbench/NOTES.md). *)
let jobs = 1
let spans_dir = "perfbench/out"

(* ------------------------------------------------------------------ *)
(* Per-pass observations                                                *)

(* One verdict unit of one pass: a program for the two model-checking
   workloads, a stream x bucket combo for soak. *)
type verdict = {
  v_unit : string;
  v_ok : bool;  (** race-field set matches the reference; no fault or divergence *)
  v_proj : string;  (** timing-free projection, compared with the first pass *)
}

(* What a pass observed at the harness, corpus and observe boundaries;
   the traced run turns these into per-layer metrics. *)
type obs = {
  mutable probe_s : float;
  mutable scenarios : int;
  mutable executions : int;
  mutable completed : int;
  mutable crashed : int;
  mutable busy_s : float;  (** sum of scenario wall times *)
  mutable batch_s : float;  (** sum of batch elapsed times *)
  mutable batch_overhead_s : float;
  mutable walls : float list;  (** scenario wall times *)
  mutable mix_walls : (string * float) list;
  mutable raw_races : int;
  mutable distinct_races : int;
  mutable snapshot_bytes : int;
  mutable absorb_s : float;
  mutable encode_s : float;
  mutable witnesses : int;
  mutable encoded_bytes : int;
  mutable sink_raw : int;
  mutable sink_dups : int;
  mutable collect_s : float;
  mutable silent_combos : int;
  mutable gc_wall : float;  (** untimed heap collections (see [collect]) *)
  mutable gc_cpu : float;
}

let new_obs () =
  {
    probe_s = 0.;
    scenarios = 0;
    executions = 0;
    completed = 0;
    crashed = 0;
    busy_s = 0.;
    batch_s = 0.;
    batch_overhead_s = 0.;
    walls = [];
    mix_walls = [];
    raw_races = 0;
    distinct_races = 0;
    snapshot_bytes = 0;
    absorb_s = 0.;
    encode_s = 0.;
    witnesses = 0;
    encoded_bytes = 0;
    sink_raw = 0;
    sink_dups = 0;
    collect_s = 0.;
    silent_combos = 0;
    gc_wall = 0.;
    gc_cpu = 0.;
  }

type pass = {
  p_trace : int;
  p_traced : bool;
  p_t0 : float;
  p_t1 : float;
  p_wall : float;  (** [p_t1 - p_t0] minus the untimed collections *)
  p_cpu : float;
  p_words : float;
  p_ops : int;
  p_verdicts : verdict list;
  p_obs : obs;
  p_sample : Scenario.t list;  (** completed scenarios kept for the probes *)
  p_expected_races : int;  (** raw races the sample reported in the pass *)
  p_peak_mb : float;  (** process major-heap high-water mark after the pass *)
}

(* A workload: its set-up (repeated and timed), and one verdict pass. *)
type workload = {
  w_name : string;
  w_setup : unit -> unit;
  w_pass : tr:Spans.t -> obs -> Scenario.t list * int * verdict list * int;
      (** sample, the sample's raw races, verdicts, simulated ops *)
}

(* A full major collection before each verdict run (program, or soak
   run), kept out of the pass's wall and CPU time.  Every run then
   starts from the same collected heap, which steadies [peak_heap_mb]:
   the high-water mark of a recovery-grid pass varied by about 9%
   between runs without it, by about 3% with it. *)
let collect obs =
  let t0 = Clock.now () and c0 = cpu_now () in
  Gc.full_major ();
  obs.gc_wall <- obs.gc_wall +. (Clock.now () -. t0);
  obs.gc_cpu <- obs.gc_cpu +. (cpu_now () -. c0)

(* A span that also adds its duration to one of the pass observations. *)
let timed_span tr ~layer ~name add f =
  let t0 = now () in
  Fun.protect
    ~finally:(fun () -> add (now () -. t0))
    (fun () -> Spans.with_span tr ~layer ~name f)

let scenario_wall = function
  | Engine.Completed c -> c.Engine.wall_s
  | Engine.Faulted f -> f.Engine.f_wall_s

let scenario_execs = function
  | Engine.Completed c -> c.Engine.executions
  | Engine.Faulted f -> f.Engine.f_executions

let scenario_ops = function
  | Engine.Completed c -> c.Engine.ops
  | Engine.Faulted f -> f.Engine.f_ops

let scenario_races = function
  | Engine.Completed c -> c.Engine.races
  | Engine.Faulted f -> f.Engine.f_races

(* Snapshot bytes each scenario copies when it hydrates its setup;
   memoized per (physically shared) snapshot. *)
let copy_bytes_of cache (s : Scenario.t) =
  match s.Scenario.setup with
  | Scenario.Snapshot cs -> (
      match List.assq_opt cs !cache with
      | Some b -> b
      | None ->
          let b = Px86.Crashstate.copy_cost cs in
          cache := (cs, b) :: !cache;
          b)
  | Scenario.No_setup | Scenario.Run_setup _ -> 0

(* Account one scenario result into the pass observations. *)
let account obs cache (s : Scenario.t) r =
  obs.scenarios <- obs.scenarios + 1;
  obs.executions <- obs.executions + scenario_execs r;
  obs.walls <- scenario_wall r :: obs.walls;
  obs.snapshot_bytes <- obs.snapshot_bytes + copy_bytes_of cache s;
  match r with
  | Engine.Completed c ->
      obs.completed <- obs.completed + 1;
      if c.Engine.chain_crashed then obs.crashed <- obs.crashed + 1
  | Engine.Faulted _ -> ()

(* Race-field set of raw races, a label being benign only if every
   report of it is (the report's own rule). *)
let add_fields tbl races =
  List.iter
    (fun (r : Yashme.Race.t) ->
      let l = Yashme.Race.label r and b = r.Yashme.Race.benign in
      match Hashtbl.find_opt tbl l with
      | Some prev -> if prev && not b then Hashtbl.replace tbl l false
      | None -> Hashtbl.add tbl l b)
    races

let fields_of tbl =
  Hashtbl.fold
    (fun l b acc -> (l, if b then Reference.Benign else Reference.Race) :: acc)
    tbl []

(* Fisher-Yates with the workload's seeded RNG. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let pick rng k xs = List.filteri (fun i _ -> i < k) (shuffle rng xs)

(* ------------------------------------------------------------------ *)
(* The two model-checking workloads                                     *)

let sample_per_unit = 6

let mc_workload ~name ~recovery ~seed reference =
  let options = Runner.default_options in
  (* Model checking is deterministic: the inputs are the registry
     programs in the paper's row order, as [check-all] visits them (the
     order also fixes the heap history behind [peak_heap_mb]).  The
     seed only chooses the probe sample. *)
  let programs = Registry.all in
  let setup () =
    ignore (Reference.load reference_path);
    (* Inputs ready: each program's setup snapshot and its crash-point
       count (the plan list the pass explores). *)
    List.iter
      (fun p ->
        ignore (Engine.materialize_setup ~options p);
        ignore (Runner.count_flush_points ~options p))
      programs
  in
  let pass ~tr obs =
    let rng = Random.State.make [| seed |] in
    let cache = ref [] in
    let sample = ref [] and sample_races = ref 0 and ops = ref 0 in
    let verdicts =
      List.map
        (fun (p : Program.t) ->
          collect obs;
          let t0 = now () in
          let o =
            Spans.with_span tr ~layer:"harness"
              ~name:
                (if recovery then "Runner.model_check_recovery_outcome"
                 else "Runner.model_check_outcome")
              (fun () ->
                if recovery then Runner.model_check_recovery_outcome ~options ~jobs p
                else Runner.model_check_outcome ~options ~jobs p)
          in
          let dt = now () -. t0 in
          let st = o.Runner.o_stats and r = o.Runner.o_report in
          obs.probe_s <- obs.probe_s +. Float.max 0. (dt -. st.Engine.elapsed_s);
          obs.busy_s <- obs.busy_s +. st.Engine.cpu_s;
          obs.batch_s <- obs.batch_s +. (float_of_int st.Engine.jobs *. st.Engine.elapsed_s);
          obs.batch_overhead_s <-
            obs.batch_overhead_s
            +. Float.max 0.
                 (st.Engine.elapsed_s
                 -. (st.Engine.cpu_s /. float_of_int (max 1 st.Engine.jobs)));
          obs.raw_races <- obs.raw_races + r.Report.raw_races;
          obs.distinct_races <- obs.distinct_races + List.length r.Report.findings;
          let completed = ref [] in
          List.iter
            (fun (s, res, _) ->
              account obs cache s res;
              ops := !ops + scenario_ops res;
              match res with
              | Engine.Completed c -> completed := (s, List.length c.Engine.races) :: !completed
              | Engine.Faulted _ -> ())
            o.Runner.o_pairs;
          List.iter
            (fun (s, n) ->
              sample := s :: !sample;
              sample_races := !sample_races + n)
            (pick rng sample_per_unit !completed);
          let observed =
            List.map
              (fun (f : Report.finding) ->
                (f.Report.label, if f.Report.benign then Reference.Benign else Reference.Race))
              r.Report.findings
          in
          let clean =
            r.Report.fault_count = 0 && r.Report.diverged = 0
            && r.Report.recovery_failures = []
            && r.Report.consistency_violations = []
            && st.Engine.faulted = 0 && st.Engine.diverged = 0
          in
          let s = Engine.structural st in
          let proj =
            Printf.sprintf "%d/%d/%d/%d/%d/%d/%d raw=%d execs=%d keys=%s"
              s.Engine.s_jobs s.Engine.s_scenarios s.Engine.s_completed
              s.Engine.s_faulted s.Engine.s_diverged s.Engine.s_executions
              s.Engine.s_ops r.Report.raw_races r.Report.executions
              (String.concat ";" (Report.keys r))
          in
          {
            v_unit = p.Program.name;
            v_ok =
              clean && Reference.matches reference ~workload:name ~unit:p.Program.name observed;
            v_proj = proj;
          })
        programs
    in
    (!sample, !sample_races, verdicts, !ops)
  in
  { w_name = name; w_setup = setup; w_pass = pass }

(* ------------------------------------------------------------------ *)
(* soak-service                                                         *)

let soak_client_ops = 48_000
let soak_slice_ops = 24_000
let soak_sample_size = 48

let soak_config ~seed ~client_ops =
  {
    (Soak.default_config ~streams:Registry.soak_streams) with
    Soak.sk_options = { Scenario.default_options with Scenario.seed };
    sk_jobs = jobs;
    sk_max_ops = Some client_ops;
  }

let set_telemetry on =
  if on then begin
    Observe.Metrics.enable ();
    Observe.Attribution.enable ();
    Observe.Coverage.enable ()
  end
  else begin
    Observe.Metrics.disable ();
    Observe.Attribution.disable ();
    Observe.Coverage.disable ()
  end

(* "soak:STREAM:MIX:DIST" -> MIX *)
let mix_of label =
  match String.split_on_char ':' label with
  | [ "soak"; _; mix; _ ] -> Some mix
  | _ -> None

type combo_acc = {
  c_fields : (string, bool) Hashtbl.t;  (** label -> every report benign *)
  mutable c_raw : int;
  mutable c_scen : int;
  mutable c_crashed : int;
  mutable c_execs : int;
  mutable c_ops : int;
  mutable c_unclean : int;
}

let soak_workload ~seed reference =
  let name = "soak-service" in
  let streams = Registry.soak_streams in
  let setup () =
    ignore (Reference.load reference_path);
    set_telemetry true;
    (* The trusted per-stream setup snapshots, exactly as the soak
       driver memoizes them. *)
    let bucket = List.hd Soak.default_buckets in
    List.iter
      (fun stream ->
        ignore
          (Engine.materialize_setup ~options:Scenario.default_options
             (Soak.program ~stream ~bucket ~ops:1 ~seed)))
      streams
  in
  let pass ~tr obs =
    collect obs;
    let cache = ref [] in
    let combos = Hashtbl.create 32 in
    let acc label =
      match Hashtbl.find_opt combos label with
      | Some a -> a
      | None ->
          let a =
            {
              c_fields = Hashtbl.create 8;
              c_raw = 0;
              c_scen = 0;
              c_crashed = 0;
              c_execs = 0;
              c_ops = 0;
              c_unclean = 0;
            }
          in
          Hashtbl.add combos label a;
          a
    in
    let sink = Soak_store.sink () in
    let observe_span name f =
      timed_span tr ~layer:"observe" ~name (fun dt -> obs.collect_s <- obs.collect_s +. dt) f
    in
    let m0, a0 =
      observe_span "reset+snapshot" (fun () ->
          Observe.Metrics.reset ();
          Observe.Attribution.reset ();
          Observe.Coverage.reset ();
          (Observe.Metrics.snapshot (), Observe.Attribution.snapshot ()))
    in
    let coverage_digest () =
      Observe.Ledger.digest_string
        (String.concat "\n"
           (List.map
              (fun s -> Pm_corpus.Json.encode_obj (Observe.Coverage.fields s))
              (Observe.Coverage.snapshot ())))
    in
    let cfg = soak_config ~seed ~client_ops:soak_client_ops in
    let manifest snap ~digest ~stopped ~elapsed =
      {
        Soak_store.m_run = "perfbench";
        m_streams = List.map (fun s -> s.Soak.os_name) streams;
        m_seed = seed;
        m_variant = Px86.Variant.label Px86.Variant.strict_tso;
        m_jobs = cfg.Soak.sk_jobs;
        m_ops_per_exec = cfg.Soak.sk_ops_per_exec;
        m_fault_budget = cfg.Soak.sk_fault_budget;
        m_max_ops = cfg.Soak.sk_max_ops;
        m_wall_s = None;
        m_checkpoint_every = cfg.Soak.sk_checkpoint_every;
        m_corpus = "";
        m_snapshot = snap;
        m_witnesses = List.length (Soak_store.witnesses sink);
        m_raw = Soak_store.raw sink;
        m_duplicates = Soak_store.duplicates sink;
        m_coverage_digest = digest;
        m_soak_ok = stopped <> "running";
        m_stopped = stopped;
        m_ts = 0.;
        m_elapsed_s = elapsed;
      }
    in
    (* The checkpoint a [yashme soak --ledger] run writes, encoded in
       memory: collect telemetry, then encode corpus and manifest. *)
    let checkpoint snap ~stopped ~elapsed =
      let digest =
        observe_span "snapshot" (fun () ->
            ignore (Observe.Metrics.snapshot ());
            ignore (Observe.Attribution.snapshot ());
            coverage_digest ())
      in
      timed_span tr ~layer:"corpus" ~name:"encode"
        (fun dt -> obs.encode_s <- obs.encode_s +. dt)
        (fun () ->
          let c = Pm_corpus.Corpus.to_jsonl (Soak_store.witnesses sink) in
          let mf = Soak_store.encode (manifest snap ~digest ~stopped ~elapsed) in
          obs.encoded_bytes <- obs.encoded_bytes + String.length c + String.length mf)
    in
    let t_start = now () in
    let mark = ref t_start and rounds = ref [] in
    let round = ref 0 and kept = ref [] in
    let stream_names = Buffer.create 65536 in
    let on_batch triples =
      let t = now () in
      rounds := (t -. !mark) :: !rounds;
      let busy = ref 0. in
      List.iter
        (fun (pname, (s : Scenario.t), r) ->
          (* The op stream: every scenario's program name encodes its
             combo, op count and derived seed. *)
          Buffer.add_string stream_names pname;
          Buffer.add_char stream_names '\n';
          account obs cache s r;
          busy := !busy +. scenario_wall r;
          let a = acc s.Scenario.label in
          a.c_scen <- a.c_scen + 1;
          a.c_execs <- a.c_execs + scenario_execs r;
          a.c_ops <- a.c_ops + scenario_ops r;
          let races = scenario_races r in
          a.c_raw <- a.c_raw + List.length races;
          add_fields a.c_fields races;
          (match r with
          | Engine.Completed c ->
              if c.Engine.chain_crashed then a.c_crashed <- a.c_crashed + 1;
              if c.Engine.diverged then a.c_unclean <- a.c_unclean + 1
          | Engine.Faulted _ -> a.c_unclean <- a.c_unclean + 1);
          (match mix_of s.Scenario.label with
          | Some mix ->
              obs.mix_walls <- (mix, scenario_wall r) :: obs.mix_walls
          | None -> ());
          match r with
          | Engine.Completed c when !round mod 8 = seed land 7 ->
              kept := (s, List.length c.Engine.races) :: !kept
          | Engine.Completed _ | Engine.Faulted _ -> ())
        triples;
      incr round;
      obs.busy_s <- obs.busy_s +. !busy;
      obs.batch_s <- obs.batch_s +. (float_of_int cfg.Soak.sk_jobs *. (t -. !mark));
      timed_span tr ~layer:"corpus" ~name:"Soak_store.absorb"
        (fun dt -> obs.absorb_s <- obs.absorb_s +. dt)
        (fun () -> Soak_store.absorb sink triples);
      mark := now ()
    in
    let on_checkpoint snap =
      checkpoint snap ~stopped:"running" ~elapsed:(now () -. t_start);
      mark := now ()
    in
    let res =
      Spans.with_span tr ~layer:"harness" ~name:"Soak.run" (fun () ->
          Soak.run ~on_batch ~on_checkpoint cfg)
    in
    let snap = res.Soak.r_snapshot in
    checkpoint snap
      ~stopped:(Soak.stop_reason_label res.Soak.r_reason)
      ~elapsed:res.Soak.r_elapsed_s;
    (* The ledger row of the run: counter and cost-center diffs. *)
    observe_span "ledger" (fun () ->
        let md = Observe.Metrics.diff m0 (Observe.Metrics.snapshot ()) in
        let ad = Observe.Attribution.diff a0 (Observe.Attribution.snapshot ()) in
        ignore
          (Observe.Ledger.fields
             {
               Observe.Ledger.e_version = Observe.Ledger.version;
               e_run = "perfbench";
               e_ts = 0.;
               e_program = "soak";
               e_variant = Px86.Variant.label Px86.Variant.strict_tso;
               e_mode = "soak";
               e_jobs = cfg.Soak.sk_jobs;
               e_seed = seed;
               e_scenarios = snap.Soak.snap_scenarios;
               e_completed = snap.Soak.snap_completed;
               e_faulted = snap.Soak.snap_faulted;
               e_diverged = snap.Soak.snap_diverged;
               e_executions = snap.Soak.snap_executions;
               e_ops = snap.Soak.snap_ops;
               e_races = 0;
               e_benign = 0;
               e_raw_races = snap.Soak.snap_races;
               e_recovery_failures = 0;
               e_witnesses = List.length (Soak_store.witnesses sink);
               e_elapsed_s = res.Soak.r_elapsed_s;
               e_cpu_s = 0.;
               e_metrics_digest = Observe.Ledger.digest_counters md;
               e_coverage_digest = coverage_digest ();
               e_cost = Observe.Ledger.costs_of_rows ad;
             }));
    (* Harness time outside the rounds: the driver's calibration probe,
       paid before the first round (estimated as the first interval
       minus a typical round). *)
    (match List.rev !rounds with
    | first :: (_ :: _ as rest) ->
        obs.probe_s <- Float.max 0. (first -. Stats.median rest)
    | _ -> ());
    obs.batch_overhead_s <-
      Float.max 0.
        ((obs.batch_s -. obs.busy_s) /. float_of_int cfg.Soak.sk_jobs);
    let ws = Soak_store.witnesses sink in
    obs.witnesses <- List.length ws;
    obs.sink_raw <- Soak_store.raw sink;
    obs.sink_dups <- Soak_store.duplicates sink;
    obs.raw_races <- snap.Soak.snap_races;
    obs.distinct_races <-
      List.length (List.sort_uniq compare (List.map (fun w -> w.Pm_corpus.Witness.key) ws));
    (* Every combo is a unit; a pass-level mismatch (run snapshot or
       witness identities) fails them all through the projection. *)
    let global =
      Printf.sprintf "rounds=%d scen=%d done=%d fault=%d div=%d crash=%d execs=%d ops=%d client=%d races=%d ok=%b stream=%s witnesses=%d wit=%s"
        snap.Soak.snap_next_round snap.Soak.snap_scenarios snap.Soak.snap_completed
        snap.Soak.snap_faulted snap.Soak.snap_diverged snap.Soak.snap_crashed
        snap.Soak.snap_executions snap.Soak.snap_ops snap.Soak.snap_client_ops
        snap.Soak.snap_races res.Soak.r_ok
        (Digest.to_hex (Digest.string (Buffer.contents stream_names)))
        (List.length ws)
        (Digest.to_hex (Digest.string (String.concat "\n" (List.map Pm_corpus.Witness.identity ws))))
    in
    (* The reference names each stream's fields.  A combo passes when
       it ran clean and reported only fields of its stream, and its
       stream's combos together reported exactly the stream's set.  A
       combo that reports nothing is not a failure by itself; it is
       counted as silent (soak.silent_combos). *)
    let verdicts =
      List.concat_map
        (fun (st : Soak.op_stream) ->
          let stream = st.Soak.os_name in
          let unit b = stream ^ ":" ^ Soak.bucket_label b in
          let found b = Hashtbl.find_opt combos ("soak:" ^ unit b) in
          let whole =
            Reference.matches reference ~workload:name ~unit:stream
              (List.concat_map
                 (fun b -> match found b with Some a -> fields_of a.c_fields | None -> [])
                 Soak.default_buckets)
          in
          List.map
            (fun b ->
              match found b with
              | None -> { v_unit = unit b; v_ok = false; v_proj = "absent" }
              | Some a ->
                  let fields = List.sort compare (fields_of a.c_fields) in
                  if fields = [] then obs.silent_combos <- obs.silent_combos + 1;
                  {
                    v_unit = unit b;
                    v_ok =
                      res.Soak.r_ok && a.c_unclean = 0 && whole
                      && Reference.within reference ~workload:name ~unit:stream fields;
                    v_proj =
                      Printf.sprintf "%s | scen=%d crash=%d execs=%d ops=%d raw=%d fields=%s"
                        global a.c_scen a.c_crashed a.c_execs a.c_ops a.c_raw
                        (String.concat ";"
                           (List.map (fun (f, k) -> f ^ "/" ^ Reference.kind_label k) fields));
                  })
            Soak.default_buckets)
        streams
    in
    (* Probe sample: seed-chosen completed scenarios of this pass. *)
    let picked = pick (Random.State.make [| seed |]) soak_sample_size !kept in
    (List.map fst picked, List.fold_left (fun n (_, r) -> n + r) 0 picked, verdicts, snap.Soak.snap_ops)
  in
  { w_name = name; w_setup = setup; w_pass = pass }

(* ------------------------------------------------------------------ *)
(* Layer probes: re-run sampled scenario chains layer by layer          *)

(* The scenario's chain, phase by phase, straight through the runtime's
   public entry point — the same plans, seeds and execution ids the
   engine uses.  Returns the simulated operations executed. *)
let replay_chain ?detector (s : Scenario.t) inherited =
  let o = s.Scenario.options in
  let run ?inherited ~plan ~seed ~exec_id body =
    Executor.run ?detector ?inherited ~plan ~sb_policy:o.Scenario.sb_policy
      ~variant:o.Scenario.variant ~cut:o.Scenario.cut ~sched:o.Scenario.sched ~seed
      ~check_candidates:o.Scenario.check_candidates ?max_ops:o.Scenario.max_ops
      ?max_wall_s:o.Scenario.max_wall_s ~exec_id body
  in
  let ops = ref 0 in
  let count r =
    ops := !ops + r.Executor.ops;
    r
  in
  let seed = o.Scenario.seed in
  let r0 = count (run ?inherited ~plan:s.Scenario.plan ~seed ~exec_id:Engine.pre_exec s.Scenario.pre) in
  (if Engine.crash_fired ~plan:s.Scenario.plan r0 then
     let r1 =
       count
         (run ~inherited:r0.Executor.state ~plan:s.Scenario.post_plan ~seed:(seed + 1)
            ~exec_id:Engine.post_exec s.Scenario.post)
     in
     match s.Scenario.post_plan with
     | Executor.Run_to_end -> ()
     | _ ->
         if Engine.crash_fired ~plan:s.Scenario.post_plan r1 then
           ignore
             (count
                (run ~inherited:r1.Executor.state ~plan:Executor.Run_to_end
                   ~seed:(seed + 2) ~exec_id:(Engine.post_exec + 1) s.Scenario.post)));
  !ops

type probe = {
  pr_ops : int;  (** simulated ops of one replay of the sample *)
  pr_bare_s : float list;  (** per repetition *)
  pr_det_s : float list;
  pr_bare_words : float list;
  pr_det_words : float list;
  pr_copy_us : float list;  (** every snapshot copy *)
  pr_races_ok : bool;  (** detector replays reproduced the pass's raw race count *)
}

let probe_reps = 5
let probe_trace_base = 1_000_000

let run_probe ~tr sample expected_races =
  Spans.set_enabled tr true;
  let copies = ref [] in
  let hydrate (s : Scenario.t) =
    match s.Scenario.setup with
    | Scenario.No_setup -> None
    | Scenario.Snapshot cs ->
        let t0 = now () in
        let c =
          Spans.with_span tr ~layer:"px86" ~name:"Crashstate.copy" (fun () ->
              Px86.Crashstate.copy cs)
        in
        copies := ((now () -. t0) *. 1e6) :: !copies;
        Some c
    | Scenario.Run_setup _ ->
        (* Only randomized store-buffer drains re-run setup per
           scenario; every workload here drains eagerly. *)
        invalid_arg "probe: scenario re-runs its setup"
  in
  let ops = ref 0 and races_ok = ref true in
  let reps =
    List.init probe_reps (fun rep ->
        Spans.set_trace tr (probe_trace_base + rep);
        let bare = ref 0. and det = ref 0. and wb = ref 0. and wd = ref 0. in
        let races = ref 0 in
        ops := 0;
        List.iter
          (fun (s : Scenario.t) ->
            let inh = hydrate s in
            let w0 = Gc.minor_words () and t0 = now () in
            let n =
              Spans.with_span tr ~layer:"runtime" ~name:"Executor.run chain" (fun () ->
                  replay_chain s inh)
            in
            bare := !bare +. (now () -. t0);
            wb := !wb +. (Gc.minor_words () -. w0);
            ops := !ops + n;
            let inh = hydrate s in
            let o = s.Scenario.options in
            let w0 = Gc.minor_words () and t0 = now () in
            let d =
              Spans.with_span tr ~layer:"core" ~name:"Executor.run chain + Detector"
                (fun () ->
                  let d =
                    Yashme.Detector.create ~mode:o.Scenario.mode ~eadr:o.Scenario.eadr
                      ~coherence:o.Scenario.coherence ()
                  in
                  ignore (replay_chain ~detector:d s inh);
                  d)
            in
            det := !det +. (now () -. t0);
            wd := !wd +. (Gc.minor_words () -. w0);
            races := !races + List.length (Yashme.Detector.races d))
          sample;
        if !races <> expected_races then races_ok := false;
        (!bare, !det, !wb, !wd))
  in
  Spans.set_enabled tr false;
  {
    pr_ops = !ops;
    pr_bare_s = List.map (fun (b, _, _, _) -> b) reps;
    pr_det_s = List.map (fun (_, d, _, _) -> d) reps;
    pr_bare_words = List.map (fun (_, _, w, _) -> w) reps;
    pr_det_words = List.map (fun (_, _, _, w) -> w) reps;
    pr_copy_us = !copies;
    pr_races_ok = !races_ok;
  }

(* observe.enabled_share: one fixed soak slice with telemetry on versus
   off, five pairs alternating which goes first. *)
let telemetry_share ~seed =
  let slice on =
    set_telemetry on;
    let t0 = now () in
    ignore (Soak.run (soak_config ~seed ~client_ops:soak_slice_ops));
    now () -. t0
  in
  let pairs =
    List.init 5 (fun i ->
        if i mod 2 = 0 then
          let a = slice true in
          (a, slice false)
        else
          let b = slice false in
          (slice true, b))
  in
  set_telemetry true;
  let on = Stats.median (List.map fst pairs) and off = Stats.median (List.map snd pairs) in
  Stats.safe_div (on -. off) off

(* ------------------------------------------------------------------ *)
(* Runs                                                                 *)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let run_pass w ~tr ~traced ~trace_id =
  Spans.set_enabled tr traced;
  Spans.set_trace tr trace_id;
  let obs = new_obs () in
  let c0 = cpu_now () and w0 = process_minor_words () and t0 = now () in
  let sample, expected, verdicts, ops = w.w_pass ~tr obs in
  let t1 = now () in
  let c1 = cpu_now () and w1 = process_minor_words () in
  Spans.set_enabled tr false;
  {
    p_trace = trace_id;
    p_traced = traced;
    p_t0 = t0;
    p_t1 = t1;
    p_wall = t1 -. t0 -. obs.gc_wall;
    p_cpu = c1 -. c0 -. obs.gc_cpu;
    p_words = w1 -. w0;
    p_ops = ops;
    p_verdicts = verdicts;
    p_obs = obs;
    p_sample = sample;
    p_expected_races = expected;
    p_peak_mb = peak_heap_mb ();
  }

(* A unit fails in a pass when its verdict is wrong or its timing-free
   projection differs from the run's first pass. *)
let judge passes =
  let first = Hashtbl.create 32 in
  let attempted = ref 0 and failed = ref 0 and failures = ref [] in
  List.iteri
    (fun i p ->
      List.iter
        (fun v ->
          incr attempted;
          let same =
            match Hashtbl.find_opt first v.v_unit with
            | None ->
                Hashtbl.add first v.v_unit v.v_proj;
                true
            | Some proj -> proj = v.v_proj
          in
          if not (v.v_ok && same) then begin
            incr failed;
            failures :=
              Printf.sprintf "pass %d unit %s: %s (%s)" i v.v_unit
                (if not v.v_ok then "verdict differs from the reference"
                 else "projection differs from the first pass")
                v.v_proj
              :: !failures
          end)
        p.p_verdicts)
    passes;
  (!attempted, !failed, List.rev !failures)

let med f xs = if xs = [] then 0. else Stats.median (List.map f xs)

let end_to_end_metrics ~setup_times passes ~attempted ~failed =
  [
    ("setup_s", Stats.median setup_times);
    ("verdict_s", med (fun p -> p.p_wall) passes);
    ("cpu_s", med (fun p -> p.p_cpu) passes);
    ("alloc_words_per_op", med (fun p -> Stats.safe_div p.p_words (float_of_int p.p_ops)) passes);
    (* Through set-up and the first pass only: OCaml 5.1 never returns
       heap to the system, so a later reading would grow with the number
       of passes the budget allowed. *)
    ("peak_heap_mb", (List.hd passes).p_peak_mb);
    ( "verdict_pass_share",
      Stats.safe_div (float_of_int (attempted - failed)) (float_of_int attempted) );
  ]

let per_layer_metrics ~tr ~untraced ~traced ~probe ~enabled_share =
  let spans = Spans.spans tr in
  let by_trace id = Spans.of_trace id spans in
  let layer_of id l = Option.value ~default:0. (List.assoc_opt l (Spans.layer_self (by_trace id))) in
  let probe_ids = List.init probe_reps (fun r -> probe_trace_base + r) in
  (* Harness, corpus and observe are timed in the traced passes;
     runtime, px86 and core in the probe repetitions. *)
  let self l =
    if List.mem l [ "runtime"; "px86"; "core" ] then
      Stats.median (List.map (fun id -> layer_of id l) probe_ids)
    else Stats.median (List.map (fun p -> layer_of p.p_trace l) traced)
  in
  let t f = med (fun p -> f p.p_obs) traced in
  let ti f = t (fun o -> float_of_int (f o)) in
  let pct q f = t (fun o -> match f o with [] -> 0. | ws -> Stats.percentile q ws *. 1e6) in
  let bare = Stats.median probe.pr_bare_s and det = Stats.median probe.pr_det_s in
  let wbare = Stats.median probe.pr_bare_words and wdet = Stats.median probe.pr_det_words in
  let ops = float_of_int probe.pr_ops in
  let untraced_wall = med (fun p -> p.p_wall) untraced in
  List.map (fun l -> (l ^ ".self_s", self l)) Catalog.layers
  @ [
      ("runtime.sim_ops", med (fun p -> float_of_int p.p_ops) traced);
      ("runtime.exec_ns_per_op", Stats.safe_div bare ops *. 1e9);
      ("runtime.alloc_words_per_op", Stats.safe_div wbare ops);
      ("core.detector_share", Stats.safe_div (det -. bare) det);
      ("core.alloc_words_per_op", Stats.safe_div (wdet -. wbare) ops);
      ("core.raw_races", ti (fun o -> o.raw_races));
      ("core.distinct_races", ti (fun o -> o.distinct_races));
      ("px86.snapshot_copy_us", if probe.pr_copy_us = [] then 0. else Stats.median probe.pr_copy_us);
      ("px86.snapshot_bytes", ti (fun o -> o.snapshot_bytes));
      ("harness.probe_s", t (fun o -> o.probe_s));
      ("harness.scenarios", ti (fun o -> o.scenarios));
      ("harness.executions", ti (fun o -> o.executions));
      ( "harness.chain_crashed_ratio",
        t (fun o -> Stats.safe_div (float_of_int o.crashed) (float_of_int o.completed)) );
      ("harness.engine_busy_share", t (fun o -> Stats.safe_div o.busy_s o.batch_s));
      ("harness.scenario_p50_us", pct 50. (fun o -> o.walls));
      ("harness.scenario_p99_us", pct 99. (fun o -> o.walls));
      ("harness.batch_overhead_ms", t (fun o -> o.batch_overhead_s *. 1e3));
    ]
  @ List.map
      (fun mix ->
        ( "soak.scenario_p50_us." ^ mix,
          pct 50. (fun o ->
              List.filter_map (fun (x, w) -> if x = mix then Some w else None) o.mix_walls) ))
      Catalog.mixes
  @ [
      ("soak.silent_combos", ti (fun o -> o.silent_combos));
      ("corpus.absorb_s", t (fun o -> o.absorb_s));
      ("corpus.encode_s", t (fun o -> o.encode_s));
      ("corpus.witnesses", ti (fun o -> o.witnesses));
      ("corpus.encoded_bytes", ti (fun o -> o.encoded_bytes));
      ( "corpus.dedup_ratio",
        t (fun o -> Stats.safe_div (float_of_int o.sink_dups) (float_of_int o.sink_raw)) );
      ("observe.collect_s", t (fun o -> o.collect_s));
      ("observe.enabled_share", enabled_share);
      ( "trace.overhead_share",
        Stats.safe_div (med (fun p -> p.p_wall) traced -. untraced_wall) untraced_wall );
      ( "unattributed_s",
        med
          (fun p ->
            Spans.uncovered ~t0:p.p_t0 ~t1:p.p_t1 (by_trace p.p_trace) -. p.p_obs.gc_wall)
          traced );
    ]

let write_spans ~workload ~seed ~origin tr =
  match Spans.spans tr with
  | [] -> ()
  | spans ->
      (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
      let file = Printf.sprintf "%s/spans-%s-seed%d.jsonl" spans_dir workload seed in
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc (Spans.to_jsonl ~origin spans));
      Printf.printf "spans: %d written to %s\n" (List.length spans) file

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 2) fmt

let setup_reps = 51

let () =
  let workload = ref "" and seed = ref Catalog.default_seed and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME mc-suite | recovery-grid | soak-service");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measurement budget");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> die "unexpected argument %S" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !seconds < 1 then die "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  (match Metric.check_catalog (Catalog.end_to_end @ Catalog.per_layer) with
  | Ok () -> ()
  | Error msg -> die "%s" msg);
  let reference =
    match Reference.load reference_path with Ok r -> r | Error msg -> die "%s" msg
  in
  let seed = !seed in
  let w =
    match !workload with
    | "mc-suite" -> mc_workload ~name:"mc-suite" ~recovery:false ~seed reference
    | "recovery-grid" ->
        mc_workload ~name:"recovery-grid" ~recovery:true ~seed reference
    | "soak-service" -> soak_workload ~seed reference
    | other -> die "unknown workload %S" other
  in
  let budget = float_of_int !seconds in
  let origin = now () in
  let setup_times =
    List.init setup_reps (fun _ ->
        let t0 = now () in
        w.w_setup ();
        now () -. t0)
  in
  let tr = Spans.create () in
  let start = now () in
  let traced_run = !trace = 1 in
  let passes, layers =
    if not traced_run then begin
      let rec loop acc i =
        if acc <> [] && now () -. start >= budget then List.rev acc
        else loop (run_pass w ~tr ~traced:false ~trace_id:i :: acc) (i + 1)
      in
      (loop [] 0, None)
    end
    else begin
      (* A warm-up pass, then traced (t) and untraced (u) passes in
         t u u t order, so drift cancels in the overhead comparison, for
         most of the budget; then probe the layers below the harness. *)
      let rec loop acc i =
        let enough = i >= 3 && now () -. start >= 0.6 *. budget in
        if enough then List.rev acc
        else
          let traced = i > 0 && ((i - 1) mod 4 = 0 || (i - 1) mod 4 = 3) in
          loop (run_pass w ~tr ~traced ~trace_id:i :: acc) (i + 1)
      in
      let passes = loop [] 0 in
      let traced = List.filter (fun p -> p.p_traced) passes in
      let untraced = List.filter (fun p -> (not p.p_traced) && p.p_trace > 0) passes in
      let last = List.nth traced (List.length traced - 1) in
      let probe = run_probe ~tr last.p_sample last.p_expected_races in
      let enabled_share =
        if w.w_name = "soak-service" then telemetry_share ~seed else 0.
      in
      (passes, Some (per_layer_metrics ~tr ~untraced ~traced ~probe ~enabled_share, probe))
    end
  in
  let attempted, failed, failures = judge passes in
  let catalog, values, probe_ok =
    match layers with
    | None ->
        (Catalog.end_to_end, end_to_end_metrics ~setup_times passes ~attempted ~failed, true)
    | Some (values, probe) -> (Catalog.per_layer, values, probe.pr_races_ok)
  in
  List.iter (fun f -> Printf.printf "FAIL %s\n" f) failures;
  if not probe_ok then
    print_endline "FAIL probe: detector replays did not reproduce the pass's raw races";
  write_spans ~workload:w.w_name ~seed ~origin tr;
  (* The first pass's timing-free projection of every unit: what later
     passes were compared with. *)
  List.iter
    (fun v -> Printf.printf "unit %s [%s]: %s\n" v.v_unit (if v.v_ok then "ok" else "FAIL") v.v_proj)
    (List.hd passes).p_verdicts;
  Printf.printf "workload %s seed %d: %d pass(es), %d verdict unit(s), %d failed\n"
    w.w_name seed (List.length passes) attempted failed;
  (* Every metric by name with its unit; the end-to-end timings also
     with their quartiles and sample count. *)
  let untraced = List.filter (fun p -> not p.p_traced) passes in
  let samples =
    [
      ("setup_s", setup_times);
      ("verdict_s", List.map (fun p -> p.p_wall) untraced);
      ("cpu_s", List.map (fun p -> p.p_cpu) untraced);
    ]
  in
  List.iter
    (fun (mt : Metric.t) ->
      let name = mt.Metric.name in
      Printf.printf "  %-34s %.6g %s" name (List.assoc name values) mt.Metric.unit;
      (match List.assoc_opt name samples with
      | Some xs when not traced_run ->
          Printf.printf "  (%s)"
            (Format.asprintf "%a" (Stats.pp_summary mt.Metric.unit) (Stats.summarize xs))
      | _ -> ());
      print_newline ())
    catalog;
  print_endline
    (Metric.result_line ~correct:(failed = 0 && probe_ok) ~attempted ~failed ~catalog values)
