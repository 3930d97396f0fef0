module Executor = Pm_runtime.Executor

(* Execution ids within one failure scenario: the setup phase is not
   registered with the detector (its data is trusted after a clean
   shutdown); pre-crash is 1, first recovery is 2, a second recovery
   (two-crash scenarios) is 3. *)
let setup_exec = 0
let pre_exec = 1
let post_exec = 2

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Setup memoization                                                    *)

let run_setup (opts : Scenario.options) (p : Program.t) =
  match p.Program.setup with
  | None -> None
  | Some setup ->
      let r =
        Executor.run ~plan:Executor.Run_to_end ~sb_policy:opts.Scenario.sb_policy
          ~variant:opts.Scenario.variant ~seed:opts.Scenario.seed
          ?max_ops:opts.Scenario.max_ops ?max_wall_s:opts.Scenario.max_wall_s
          ~exec_id:setup_exec setup
      in
      Some r.Executor.state

let materialize_setup ~(options : Scenario.options) (p : Program.t) =
  match p.Program.setup with
  | None -> Scenario.No_setup
  | Some fn -> (
      match options.Scenario.sb_policy with
      | Px86.Machine.Eager -> (
          (* Eager drain makes the setup run deterministic and
             seed-independent: one snapshot serves every scenario. *)
          match run_setup options p with
          | None -> Scenario.No_setup
          | Some cs -> Scenario.Snapshot cs)
      | Px86.Machine.Random_drain _ ->
          (* The drained state depends on the scenario seed; each
             scenario re-runs the setup with its own options. *)
          Scenario.Run_setup fn)

(* ------------------------------------------------------------------ *)
(* Phase execution                                                      *)

(* Every phase of a scenario funnels through here so pre-crash runs,
   recovery runs and crashed-recovery runs share one code path. *)
let run_phase ?detector ?observer ?inherited ~(options : Scenario.options) ~plan
    ~seed ~exec_id body =
  Executor.run ?detector ?observer ?inherited ~plan
    ~sb_policy:options.Scenario.sb_policy ~variant:options.Scenario.variant
    ~cut:options.Scenario.cut ~sched:options.Scenario.sched ~seed
    ~check_candidates:options.Scenario.check_candidates
    ?max_ops:options.Scenario.max_ops ?max_wall_s:options.Scenario.max_wall_s
    ~exec_id body

(* The one recovery path: every post-crash [Executor.run] in the
   harness goes through this helper. *)
let run_recovery ?detector ?observer ~options ~inherited ~seed ~exec_id post =
  run_phase ?detector ?observer ~inherited ~options ~plan:Executor.Run_to_end
    ~seed ~exec_id post

(* Coverage index of a crash plan: targeted flush-point plans carry
   their index, crash-at-end is the pseudo-index -1 and untargeted
   plans have none.  Kept here (not in Observe) so lib/observe stays
   free of runtime types. *)
let plan_index = function
  | Executor.Crash_before_flush n -> Some n
  | Executor.Crash_at_end -> Some (-1)
  | Executor.Run_to_end | Executor.Crash_before_op _ -> None

(* Did the crash plan of this run actually fire?  [Crash_at_end]
   completes and then crashes; targeted plans that never fired leave a
   cleanly shut-down state with no crash. *)
let crash_fired ~plan (r : Executor.result) =
  match r.Executor.outcome with
  | Executor.Crashed -> true
  | Executor.Diverged -> false
  | Executor.Completed -> (
      match plan with
      | Executor.Crash_at_end -> true
      | Executor.Run_to_end | Executor.Crash_before_op _
      | Executor.Crash_before_flush _ -> false)

(* ------------------------------------------------------------------ *)
(* Scenario execution                                                   *)

type completed = {
  label : string;
  races : Yashme.Race.t list;
  chain_crashed : bool;
  diverged : bool;
  executions : int;
  ops : int;
  flush_points : int;
  post_flush_points : int option;
  observed : bool;
  violations : (string * string) list;
  wall_s : float;
}

type fault = {
  f_info : Finding.fault;
  f_exn : exn;
  f_backtrace : Printexc.raw_backtrace;
  f_races : Yashme.Race.t list;
  f_executions : int;
  f_ops : int;
  f_wall_s : float;
}

type scenario_result = Completed of completed | Faulted of fault

let m_faults = Observe.Metrics.counter "engine/faults"
let m_recovery_failures = Observe.Metrics.counter "engine/recovery_failures"
let m_cancelled = Observe.Metrics.counter "engine/cancelled"
let m_oracle_violations = Observe.Metrics.counter "oracle/violations"

(* Worker-pool cost centers.  Counts and charged units are
   jobs-invariant (one queue-wait charge per claimed scenario, one work
   charge per scenario with the scenario's execution count as units);
   wall clocks are scheduling-dependent and the GC word deltas are
   volatile — [Gc.quick_stat] counters are flushed globally at minor
   collections, so a per-domain delta absorbs allocation from whichever
   domains happened to run concurrently. *)
let ct_queue_wait = Observe.Attribution.center "engine/queue_wait"
let ct_work = Observe.Attribution.center ~units:"execs" "engine/work"

let ct_gc_minor =
  Observe.Attribution.center ~units:"words" ~volatile_units:true "gc/minor"

let ct_gc_major =
  Observe.Attribution.center ~units:"words" ~volatile_units:true "gc/major"

(* One charge per oracle observe phase, units = its operation count —
   both jobs-invariant. *)
let ct_oracle = Observe.Attribution.center ~units:"ops" "oracle/observe"

(* One charge per race merge, units = results merged — jobs-invariant;
   the wall clock is the serial post-batch cost the scaling analysis
   sets against lost parallel time. *)
let ct_merge = Observe.Attribution.center ~units:"results" "engine/merge"

let run_scenario (s : Scenario.t) =
  let open Scenario in
  let t0 = now () in
  let opts = s.options in
  let execs = ref 0 and ops = ref 0 in
  let count (r : Executor.result) =
    incr execs;
    ops := !ops + r.Executor.ops;
    r
  in
  let detector =
    Yashme.Detector.create ~mode:opts.mode ~eadr:opts.eadr
      ~coherence:opts.coherence ()
  in
  (* Sandbox bookkeeping: which phase is executing, whether a real crash
     preceded it (a raising recovery then witnesses a crash-consistency
     bug, not an infrastructure fault), and whether any phase was
     terminated by a budget. *)
  let phase = ref Finding.Setup in
  let crash_seen = ref false in
  let diverged = ref false in
  let note (r : Executor.result) =
    if r.Executor.outcome = Executor.Diverged then diverged := true;
    r
  in
  let body () =
    Observe.Coverage.scenario_started ();
    Option.iter Observe.Coverage.plan_exercised (plan_index s.plan);
    Option.iter Observe.Coverage.plan_exercised (plan_index s.post_plan);
    let inherited =
      match s.setup with
      | No_setup -> None
      | Snapshot cs -> Some cs
      | Run_setup fn ->
          (* Mirror [run_setup]: default round-robin scheduling, no
             detector — the setup phase is trusted. *)
          let r =
            note
              (count
                 (Executor.run ~plan:Executor.Run_to_end ~sb_policy:opts.sb_policy
                    ~variant:opts.variant ~seed:opts.seed ?max_ops:opts.max_ops
                    ?max_wall_s:opts.max_wall_s ~exec_id:setup_exec fn))
          in
          Some r.Executor.state
    in
    (* The oracle replays the whole chain from the same durable base
       under [Cut_lowerbound]; states are immutable, so the pre phase
       leaves that base as it found it. *)
    let oracle_base =
      match s.oracle with Some _ -> Some inherited | None -> None
    in
    phase := Finding.Pre_crash;
    let pre_result =
      note
        (count
           (run_phase ~detector ?inherited ~options:opts ~plan:s.plan
              ~seed:opts.seed ~exec_id:pre_exec s.pre))
    in
    let post_flush_points = ref None in
    let pre_fired = crash_fired ~plan:s.plan pre_result in
    if pre_fired then Option.iter Observe.Coverage.crash_point (plan_index s.plan);
    let chain_crashed =
      pre_fired
      && begin
           crash_seen := true;
           phase := Finding.Recovery 0;
           let r1 =
             note
               (count
                  (run_phase ~detector ~options:opts
                     ~inherited:pre_result.Executor.state ~plan:s.post_plan
                     ~seed:(opts.seed + 1) ~exec_id:post_exec s.post))
           in
           post_flush_points := Some r1.Executor.flush_points;
           match s.post_plan with
           | Executor.Run_to_end -> true
           | _ ->
               let fired = crash_fired ~plan:s.post_plan r1 in
               if fired then begin
                 Option.iter Observe.Coverage.crash_point (plan_index s.post_plan);
                 phase := Finding.Recovery 1;
                 ignore
                   (note
                      (count
                         (run_recovery ~detector ~options:opts
                            ~inherited:r1.Executor.state ~seed:(opts.seed + 2)
                            ~exec_id:(post_exec + 1) s.post)))
               end;
               fired
         end
    in
    (* Invariant-oracle observe phase: only when an oracle context is
       attached and the chain really crashed and recovered — a clean
       run has nothing to diff.  The scenario's own chain materializes
       crashes with the configured cut (default [Cut_all], the maximal
       recovery view the race detector wants), so the oracle replays
       the identical chain — same plans, same seeds, hence the same
       schedules and crash points — under [Cut_lowerbound]: the image
       holding only what flushes {e guarantee}, the states a real
       power failure is allowed to expose.  Recovery runs over that
       image too (recovery may legitimately repair), then the observe
       hook snapshots the recovered store and the check diffs it
       against the invariant-reachable states.  All replay executions
       are detector-free (observation never adds races) and inside the
       sandbox, so a throwing hook is a contained [Observe]-phase
       fault.  None of this runs without an oracle context, keeping
       oracle-off runs byte-identical. *)
    let observed = ref false in
    let violations = ref [] in
    (match (s.oracle, oracle_base) with
    | Some oc, Some base when chain_crashed ->
        phase := Finding.Observe;
        let lopts = { opts with Scenario.cut = Px86.Machine.Cut_lowerbound } in
        let o_ops = ref 0 in
        let track (r : Executor.result) =
          o_ops := !o_ops + r.Executor.ops;
          note (count r)
        in
        let o_pre =
          track
            (run_phase ?inherited:base ~options:lopts ~plan:s.plan
               ~seed:opts.seed ~exec_id:(post_exec + 2) s.pre)
        in
        let o_final =
          if not (crash_fired ~plan:s.plan o_pre) then None
          else
            let o_r1 =
              track
                (run_phase ~options:lopts ~inherited:o_pre.Executor.state
                   ~plan:s.post_plan ~seed:(opts.seed + 1)
                   ~exec_id:(post_exec + 3) s.post)
            in
            match s.post_plan with
            | Executor.Run_to_end -> Some o_r1.Executor.state
            | _ ->
                if not (crash_fired ~plan:s.post_plan o_r1) then None
                else
                  let o_r2 =
                    track
                      (run_recovery ~options:lopts
                         ~inherited:o_r1.Executor.state ~seed:(opts.seed + 2)
                         ~exec_id:(post_exec + 4) s.post)
                  in
                  Some o_r2.Executor.state
        in
        (match o_final with
        | None -> ()
        | Some st ->
            let snap = ref [] in
            ignore
              (track
                 (run_phase ~options:lopts ~inherited:st
                    ~plan:Executor.Run_to_end ~seed:(opts.seed + 3)
                    ~exec_id:(post_exec + 5) (fun () ->
                      snap := oc.oc_observe ())));
            observed := true;
            Observe.Coverage.oracle_checked ();
            if Observe.Attribution.is_enabled () then
              Observe.Attribution.charge ct_oracle ~count:1 ~units:!o_ops ~wall_us:0;
            let vs = oc.oc_check ~observed:!snap in
            List.iter
              (fun _ ->
                Observe.Coverage.oracle_violation ();
                Observe.Metrics.incr m_oracle_violations)
              vs;
            violations := vs)
    | (Some _ | None), _ -> ());
    {
      label = s.label;
      races = Yashme.Detector.races detector;
      chain_crashed;
      diverged = !diverged;
      executions = !execs;
      ops = !ops;
      flush_points = pre_result.Executor.flush_points;
      post_flush_points = !post_flush_points;
      observed = !observed;
      violations = !violations;
      wall_s = now () -. t0;
    }
  in
  match
    Observe.Coverage.with_program
      ~variant:(Px86.Variant.label opts.variant)
      s.label body
  with
  | c -> Completed c
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      let info =
        {
          Finding.label = s.label;
          phase = !phase;
          exn_text = Printexc.to_string e;
          backtrace = Printexc.raw_backtrace_to_string bt;
          plan = Executor.plan_label s.plan;
          post_plan = Executor.plan_label s.post_plan;
          seed = opts.seed;
          crash_fired = !crash_seen;
        }
      in
      Observe.Metrics.incr m_faults;
      if Finding.is_recovery_failure info then
        Observe.Metrics.incr m_recovery_failures;
      if Observe.Trace.recording () then
        Observe.Trace.instant ~cat:"engine" "fault"
          ~args:
            [
              ("label", s.label);
              ("phase", Finding.phase_label !phase);
              ("plan", info.Finding.plan);
              ("exn", info.Finding.exn_text);
              ( "kind",
                if Finding.is_recovery_failure info then "recovery_failure"
                else "fault" );
            ];
      Faulted
        {
          f_info = info;
          f_exn = e;
          f_backtrace = bt;
          f_races = Yashme.Detector.races detector;
          f_executions = !execs;
          f_ops = !ops;
          f_wall_s = now () -. t0;
        }

(* ------------------------------------------------------------------ *)
(* The worker pool                                                      *)

type stats = {
  jobs : int;
  scenarios : int;
  completed : int;
  faulted : int;
  diverged : int;
  cancelled : int;
  executions : int;
  ops : int;
  cpu_s : float;
  elapsed_s : float;
}

(* The timing-free projection: what determinism comparisons may look
   at.  [cpu_s]/[elapsed_s] (and the wall times) vary run to run, so
   polymorphic equality over the full records is latently flaky —
   compare these instead.  [cancelled] is also excluded: under
   fail-fast with several domains, how many queue entries were already
   claimed when the stop flag rose is scheduling-dependent. *)
type structural_stats = {
  s_jobs : int;
  s_scenarios : int;
  s_completed : int;
  s_faulted : int;
  s_diverged : int;
  s_executions : int;
  s_ops : int;
}

let structural stats =
  {
    s_jobs = stats.jobs;
    s_scenarios = stats.scenarios;
    s_completed = stats.completed;
    s_faulted = stats.faulted;
    s_diverged = stats.diverged;
    s_executions = stats.executions;
    s_ops = stats.ops;
  }

type completed_sig = {
  sig_label : string;
  sig_races : Yashme.Race.t list;
  sig_chain_crashed : bool;
  sig_diverged : bool;
  sig_executions : int;
  sig_ops : int;
  sig_flush_points : int;
  sig_post_flush_points : int option;
  sig_observed : bool;
  sig_violations : (string * string) list;
}

type fault_sig = {
  sig_f_label : string;
  sig_f_phase : Finding.phase;
  sig_f_exn : string;
  sig_f_plan : string;
  sig_f_post_plan : string;
  sig_f_seed : int;
  sig_f_crash_fired : bool;
  sig_f_races : Yashme.Race.t list;
  sig_f_executions : int;
  sig_f_ops : int;
}

type scenario_sig = Sig_completed of completed_sig | Sig_faulted of fault_sig

let signature = function
  | Completed r ->
      Sig_completed
        {
          sig_label = r.label;
          sig_races = r.races;
          sig_chain_crashed = r.chain_crashed;
          sig_diverged = r.diverged;
          sig_executions = r.executions;
          sig_ops = r.ops;
          sig_flush_points = r.flush_points;
          sig_post_flush_points = r.post_flush_points;
          sig_observed = r.observed;
          sig_violations = r.violations;
        }
  | Faulted f ->
      Sig_faulted
        {
          sig_f_label = f.f_info.Finding.label;
          sig_f_phase = f.f_info.Finding.phase;
          sig_f_exn = f.f_info.Finding.exn_text;
          sig_f_plan = f.f_info.Finding.plan;
          sig_f_post_plan = f.f_info.Finding.post_plan;
          sig_f_seed = f.f_info.Finding.seed;
          sig_f_crash_fired = f.f_info.Finding.crash_fired;
          sig_f_races = f.f_races;
          sig_f_executions = f.f_executions;
          sig_f_ops = f.f_ops;
        }

type run_result = { results : scenario_result list; stats : stats }

let run ?(jobs = 1) ?(fail_fast = false) scenarios =
  let t0 = now () in
  let arr = Array.of_list scenarios in
  let n = Array.length arr in
  let jobs =
    if List.for_all Scenario.parallel_safe scenarios then
      max 1 (min jobs (max 1 n))
    else begin
      if jobs > 1 then
        Observe.Log.warn
          "Cut_random's shared RNG is not domain-safe; running the batch on 1 \
           domain (use Cut_all/Cut_lowerbound for parallel exploration, or \
           --quiet to silence this)";
      1
    end
  in
  let out = Array.make n None in
  Observe.Progress.batch n;
  Observe.Progress.set_jobs jobs;
  let next = Atomic.make 0 in
  (* Cooperative cancellation for fail-fast: a worker that records a
     fault raises the flag; every worker re-checks it before claiming
     the next queue entry, so in-flight scenarios finish but the rest
     of the queue is cancelled — never silently "completed". *)
  let stop = Atomic.make false in
  (* Workers claim the next unstarted scenario; each result lands in
     its scenario's slot, so the merge below is in submission order no
     matter which domain finished first.  Each worker owns trace lane
     (pid 0, tid = slot): scenario spans land in their worker's lane,
     making per-domain utilization and queue idle time visible in the
     Chrome viewer. *)
  let worker slot =
    Observe.Trace.set_context ~pid:0 ~tid:slot;
    Observe.Span.with_ ~cat:"engine"
      ~args:[ ("slot", string_of_int slot) ]
      "worker"
      (fun () ->
        let att = Observe.Attribution.is_enabled () in
        let idle_since = ref (if att then Observe.Trace.now_us () else 0) in
        let rec loop () =
          if not (Atomic.get stop) then begin
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              if att then
                Observe.Attribution.charge ct_queue_wait ~count:1 ~units:0
                  ~wall_us:(Observe.Trace.now_us () - !idle_since);
              let s = arr.(i) in
              let gc0 = if att then Some (Gc.quick_stat ()) else None in
              let w0 = if att then Observe.Trace.now_us () else 0 in
              let r =
                Observe.Span.with_ ~cat:"scenario"
                  ~args:
                    [
                      ("index", string_of_int i);
                      ("label", s.Scenario.label);
                      ("plan", Executor.plan_label s.Scenario.plan);
                    ]
                  s.Scenario.label
                  (fun () -> run_scenario s)
              in
              if att then begin
                let w1 = Observe.Trace.now_us () in
                let execs =
                  match r with
                  | Completed c -> c.executions
                  | Faulted f -> f.f_executions
                in
                Observe.Attribution.charge ct_work ~count:1 ~units:execs
                  ~wall_us:(w1 - w0);
                (match gc0 with
                | Some g0 ->
                    let g1 = Gc.quick_stat () in
                    Observe.Attribution.charge ct_gc_minor ~count:1
                      ~units:
                        (int_of_float (g1.Gc.minor_words -. g0.Gc.minor_words))
                      ~wall_us:0;
                    Observe.Attribution.charge ct_gc_major ~count:1
                      ~units:
                        (int_of_float (g1.Gc.major_words -. g0.Gc.major_words))
                      ~wall_us:0
                | None -> ());
                idle_since := w1
              end;
              out.(i) <- Some r;
              (match r with
              | Completed c ->
                  Observe.Progress.tick ~lane:slot
                    ~races:(List.length c.races) ~faulted:false ()
              | Faulted f ->
                  Observe.Progress.tick ~lane:slot
                    ~races:(List.length f.f_races) ~faulted:true ());
              (match r with
              | Faulted _ when fail_fast -> Atomic.set stop true
              | Faulted _ | Completed _ -> ());
              loop ()
            end
          end
        in
        loop ());
    Observe.Trace.clear_context ()
  in
  Observe.Span.with_ ~cat:"engine"
    ~args:[ ("jobs", string_of_int jobs); ("scenarios", string_of_int n) ]
    "batch"
    (fun () ->
      if jobs = 1 then worker 0
      else begin
        let helpers =
          List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
        in
        worker 0;
        List.iter Domain.join helpers
      end);
  let cancelled = ref 0 in
  Array.iteri
    (fun i slot ->
      match slot with
      | Some _ -> ()
      | None ->
          incr cancelled;
          Observe.Metrics.incr m_cancelled;
          if Observe.Trace.recording () then
            Observe.Trace.instant ~cat:"engine" "cancelled"
              ~args:
                [
                  ("index", string_of_int i);
                  ("label", arr.(i).Scenario.label);
                ])
    out;
  if fail_fast then begin
    (* Re-raise the earliest-submitted recorded fault with its original
       backtrace.  (With several domains, a later-submitted scenario may
       fault first in wall time; the submission-order scan keeps the
       choice as deterministic as cancellation allows.) *)
    let first_fault =
      Array.to_seq out
      |> Seq.find_map (function Some (Faulted f) -> Some f | _ -> None)
    in
    match first_fault with
    | Some f -> Printexc.raise_with_backtrace f.f_exn f.f_backtrace
    | None -> ()
  end;
  let results = Array.to_list out |> List.filter_map Fun.id in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let execs = function Completed c -> c.executions | Faulted f -> f.f_executions in
  let ops = function Completed c -> c.ops | Faulted f -> f.f_ops in
  let wall = function Completed c -> c.wall_s | Faulted f -> f.f_wall_s in
  let count p = sum (fun r -> if p r then 1 else 0) in
  let stats =
    {
      jobs;
      scenarios = n;
      completed = count (function Completed _ -> true | Faulted _ -> false);
      faulted = count (function Faulted _ -> true | Completed _ -> false);
      diverged = count (function Completed c -> c.diverged | Faulted _ -> false);
      cancelled = !cancelled;
      executions = sum execs;
      ops = sum ops;
      cpu_s = List.fold_left (fun acc r -> acc +. wall r) 0. results;
      elapsed_s = now () -. t0;
    }
  in
  { results; stats }

(* Merged races of a run, in scenario order (see
   {!Yashme.Race.merge_ordered} for why order matters).  Races observed
   before a fault are genuine evidence and are kept. *)
let races ?(keep = fun (_ : completed) -> true) run =
  let att = Observe.Attribution.is_enabled () in
  let w0 = if att then Observe.Trace.now_us () else 0 in
  let merged =
    Yashme.Race.merge_ordered
      (List.map
         (function
           | Completed c -> if keep c then c.races else []
           | Faulted f -> f.f_races)
         run.results)
  in
  if att then
    Observe.Attribution.charge ct_merge ~count:1
      ~units:(List.length run.results)
      ~wall_us:(Observe.Trace.now_us () - w0);
  merged

(* Faults of a run, in submission order — the list {!Report.dedup}
   folds into recovery-failure findings and fault counts. *)
let faults run =
  List.filter_map
    (function Faulted f -> Some f.f_info | Completed _ -> None)
    run.results

let diverged_count run = run.stats.diverged
