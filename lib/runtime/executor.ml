module Rng = Yashme_util.Rng
module Machine = Px86.Machine
module Metrics = Observe.Metrics

exception Crash_signal
(** Raised into suspended threads when the machine crashes. *)

type plan =
  | Run_to_end
  | Crash_at_end
  | Crash_before_op of int
  | Crash_before_flush of int

let plan_label = function
  | Run_to_end -> "run_to_end"
  | Crash_at_end -> "crash_at_end"
  | Crash_before_op n -> Printf.sprintf "crash_before_op:%d" n
  | Crash_before_flush n -> Printf.sprintf "crash_before_flush:%d" n

(* Inverse of [plan_label]; serialized witnesses round-trip plans
   through these two functions. *)
let plan_of_label s =
  let indexed prefix k =
    let pl = String.length prefix in
    if
      String.length s > pl
      && String.sub s 0 pl = prefix
      && s.[pl] = ':'
    then
      match int_of_string_opt (String.sub s (pl + 1) (String.length s - pl - 1)) with
      | Some n when n >= 0 -> Some (k n)
      | Some _ | None -> None
    else None
  in
  match s with
  | "run_to_end" -> Some Run_to_end
  | "crash_at_end" -> Some Crash_at_end
  | _ -> (
      match indexed "crash_before_op" (fun n -> Crash_before_op n) with
      | Some _ as p -> p
      | None -> indexed "crash_before_flush" (fun n -> Crash_before_flush n))

(* Per-phase operation counters: execution ids map to the setup /
   pre-crash / post-crash (recovery) phases of a failure scenario (see
   Engine).  Resolved once per [run], so the per-op cost when metrics
   are off is the single branch inside [Metrics.incr]. *)
type phase_counters = {
  pc_loads : Metrics.counter;
  pc_stores : Metrics.counter;
  pc_cas : Metrics.counter;
  pc_flushes : Metrics.counter;
  pc_fences : Metrics.counter;
}

let phase_counters phase =
  {
    pc_loads = Metrics.counter (Printf.sprintf "executor/%s/loads" phase);
    pc_stores = Metrics.counter (Printf.sprintf "executor/%s/stores" phase);
    pc_cas = Metrics.counter (Printf.sprintf "executor/%s/cas" phase);
    pc_flushes = Metrics.counter (Printf.sprintf "executor/%s/flushes" phase);
    pc_fences = Metrics.counter (Printf.sprintf "executor/%s/fences" phase);
  }

let all_phase_counters =
  [| phase_counters "setup"; phase_counters "pre"; phase_counters "post" |]

(* Per-phase wall-clock/op attribution: one charge per [run], count 1,
   units = memory ops executed.  Counts and ops are deterministic; the
   wall column is volatile by nature (see Observe.Attribution). *)
let att_phase_centers =
  [|
    Observe.Attribution.center ~units:"ops" "phase/setup";
    Observe.Attribution.center ~units:"ops" "phase/pre";
    Observe.Attribution.center ~units:"ops" "phase/post";
  |]

let phase_of_exec_id exec_id = if exec_id <= 0 then 0 else if exec_id = 1 then 1 else 2
let phase_name exec_id = [| "setup"; "pre"; "post" |].(phase_of_exec_id exec_id)

let m_crashes = Metrics.counter "executor/crashes"
let m_divergences = Metrics.counter "executor/divergences"
let h_ops = Metrics.histogram "executor/ops_per_exec"

type sched_policy = Round_robin | Random_sched

let sched_label = function
  | Round_robin -> "round_robin"
  | Random_sched -> "random"

let sched_of_label = function
  | "round_robin" -> Some Round_robin
  | "random" -> Some Random_sched
  | _ -> None

type outcome = Completed | Crashed | Diverged

let outcome_label = function
  | Completed -> "completed"
  | Crashed -> "crashed"
  | Diverged -> "diverged"

type result = {
  outcome : outcome;
  state : Px86.Crashstate.t;
  ops : int;
  flush_points : int;
  crashed_at_op : int option;
}

type opkind =
  | Op_mem  (** load / store / cas *)
  | Op_flushpt  (** clflush / clwb / sfence / mfence: crash-plan points *)
  | Op_meta  (** alloc / spawn / join / yield / ... *)
  | Op_crash_req  (** explicit [Pmem.crash_now] *)

(* A thread's scheduling state.  A suspended thread is its pending
   effect and continuation, nothing more: the op runs when the scheduler
   picks the thread ([Start], [Op] and [Woken] are ready). *)
type tstate =
  | Done  (** finished, torn down, or currently running *)
  | Start of (unit -> unit)  (** spawned, not started yet *)
  | Op : 'a Effect.t * ('a, unit) Effect.Deep.continuation -> tstate
      (** suspended at a {!Pmem} operation *)
  | Waiting of int * (unit, unit) Effect.Deep.continuation
      (** joining a thread that has not finished *)
  | Woken of (unit, unit) Effect.Deep.continuation  (** joined thread finished *)

type thread = {
  mutable tstate : tstate;
  mutable validating : int;  (** [Pmem.validating] nesting depth *)
}

type state = {
  detector : Yashme.Detector.t option;
  check_candidates : bool;
  machine : Machine.t;
  cut : Machine.cut_strategy;
  plan : plan;
  sched : sched_policy;
  rng : Rng.t;
  exec_id : int;
  max_ops : int option;  (** fuel: scheduled operations before [Diverged] *)
  deadline : float option;  (** absolute wall-clock cutoff *)
  pc : phase_counters;  (** this execution's phase counters *)
  mutable threads : thread array;  (** indexed by tid; tids are spawn order *)
  mutable n_threads : int;  (** live prefix of [threads]; the next tid *)
  mutable rr_cursor : int;
  mutable heap_break : int;
  mutable ops : int;
  mutable fuel_used : int;  (** every scheduled op, incl. meta ops *)
  mutable flush_points : int;
  mutable crashed : bool;
  mutable diverged : bool;
  mutable crash_state : Px86.Crashstate.t option;
  mutable crashed_at_op : int option;
  mutable error : (exn * Printexc.raw_backtrace) option;
}

let get_state st tid =
  if tid >= 0 && tid < st.n_threads then st.threads.(tid).tstate else Done

let add_thread st tstate =
  let th = { tstate; validating = 0 } in
  let n = st.n_threads in
  if n = Array.length st.threads then begin
    let grown = Array.make (2 * n) th in
    Array.blit st.threads 0 grown 0 n;
    st.threads <- grown
  end;
  st.threads.(n) <- th;
  st.n_threads <- n + 1;
  n

(* ------------------------------------------------------------------ *)
(* Detector wiring for post-crash reads                                 *)

let same_origin (a : Px86.Crashstate.origin) (b : Px86.Crashstate.origin) =
  a.Px86.Crashstate.exec_id = b.Px86.Crashstate.exec_id
  && a.Px86.Crashstate.store.Px86.Event.seq = b.Px86.Crashstate.store.Px86.Event.seq

let check_origin st d ~tid ~addr ~size ~benign ~commit (o : Px86.Crashstate.origin) =
  let store = o.Px86.Crashstate.store in
  if commit && Px86.Access.is_release store.Px86.Event.access then
    Yashme.Detector.load_atomic d ~exec:o.Px86.Crashstate.exec_id ~store
  else
    ignore
      (Yashme.Detector.load_non_atomic d ~exec:o.Px86.Crashstate.exec_id ~store
         ~load_addr:addr ~load_size:size ~load_tid:tid ~load_exec:st.exec_id ~commit
         ~benign)

let rec check_candidates st d ~tid ~addr ~size ~benign origin = function
  | [] -> ()
  | c :: rest ->
      if not (same_origin c origin) then
        check_origin st d ~tid ~addr ~size ~benign ~commit:false c;
      check_candidates st d ~tid ~addr ~size ~benign origin rest

let check_crash_read st ~tid ~addr ~size source =
  match st.detector, source with
  | None, _ -> ()
  | Some d, Machine.From_crash (origin, cands) ->
      let benign = st.threads.(tid).validating > 0 in
      (* Candidate stores the load could have read in some consistent
         execution are all checked (paper §6, random mode); only the
         committed read advances CVpre / lastflush. *)
      if st.check_candidates then
        check_candidates st d ~tid ~addr ~size ~benign origin cands;
      check_origin st d ~tid ~addr ~size ~benign ~commit:true origin
  | Some _, (Machine.From_buffer _ | Machine.From_cache _ | Machine.From_init) -> ()

(* ------------------------------------------------------------------ *)
(* Operation execution                                                  *)

let exec_store st tid (r : Pmem.store_req) =
  Metrics.incr st.pc.pc_stores;
  Machine.store ~nt:r.Pmem.s_nt st.machine ~tid ~addr:r.Pmem.s_addr
    ~size:r.Pmem.s_size ~value:r.Pmem.s_value ~access:r.Pmem.s_access
    ~label:r.Pmem.s_label

let exec_load st tid (r : Pmem.load_req) =
  Metrics.incr st.pc.pc_loads;
  let value, source =
    Machine.load st.machine ~tid ~addr:r.Pmem.l_addr ~size:r.Pmem.l_size
      ~access:r.Pmem.l_access
  in
  check_crash_read st ~tid ~addr:r.Pmem.l_addr ~size:r.Pmem.l_size source;
  value

let exec_cas st tid (r : Pmem.cas_req) =
  Metrics.incr st.pc.pc_cas;
  let ok, _observed, source =
    Machine.cas st.machine ~tid ~addr:r.Pmem.c_addr ~size:r.Pmem.c_size
      ~expected:r.Pmem.c_expected ~desired:r.Pmem.c_desired ~label:r.Pmem.c_label
  in
  check_crash_read st ~tid ~addr:r.Pmem.c_addr ~size:r.Pmem.c_size source;
  ok

let exec_flush st tid (r : Pmem.flush_req) =
  Metrics.incr st.pc.pc_flushes;
  match r.Pmem.f_kind with
  | Px86.Event.Clflush -> Machine.clflush st.machine ~tid ~addr:r.Pmem.f_addr
  | Px86.Event.Clwb -> Machine.clwb st.machine ~tid ~addr:r.Pmem.f_addr

let exec_fence st tid fk =
  Metrics.incr st.pc.pc_fences;
  match fk with
  | Px86.Event.Sfence -> Machine.sfence st.machine ~tid
  | Px86.Event.Mfence -> Machine.mfence st.machine ~tid

let exec_alloc st (size, align) =
  if size <= 0 then invalid_arg "Pmem.alloc: size must be positive";
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Pmem.alloc: alignment must be a positive power of two";
  let base = (st.heap_break + align - 1) land lnot (align - 1) in
  st.heap_break <- base + size;
  base

(* ------------------------------------------------------------------ *)
(* Thread management                                                    *)

let finish_thread st tid =
  st.threads.(tid).tstate <- Done;
  (* Wake joiners. *)
  for w = 0 to st.n_threads - 1 do
    match st.threads.(w).tstate with
    | Waiting (target, k) when target = tid -> st.threads.(w).tstate <- Woken k
    | Waiting _ | Done | Start _ | Op _ | Woken _ -> ()
  done

let kind_of_effect : type a. a Effect.t -> opkind = function
  | Pmem.Store_e _ | Pmem.Load_e _ -> Op_mem
  (* Locked RMW has fence semantics: a crash point like any other fence
     in model-checking mode. *)
  | Pmem.Cas_e _ | Pmem.Flush_e _ | Pmem.Fence_e _ -> Op_flushpt
  | Pmem.Crash_now_e -> Op_crash_req
  | _ -> Op_meta

let kind_of_state = function
  | Op (eff, _) -> kind_of_effect eff
  | Start _ | Woken _ | Waiting _ | Done -> Op_meta

let rec start_thread st tid (fn : unit -> unit) =
  let open Effect.Deep in
  let th = st.threads.(tid) in
  match_with fn ()
    {
      retc = (fun () -> finish_thread st tid);
      exnc =
        (fun e ->
          (match e with
          | Crash_signal -> ()
          | e ->
              (* Capture the backtrace here, at the raise site, so the
                 re-raise after the scheduling loop (and any fault
                 report built from it) points at the real frame. *)
              if st.error = None then
                st.error <- Some (e, Printexc.get_raw_backtrace ()));
          finish_thread st tid);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Pmem.Store_e _ | Pmem.Load_e _ | Pmem.Cas_e _ | Pmem.Flush_e _
          | Pmem.Fence_e _ | Pmem.Alloc_e _ | Pmem.Spawn_e _ | Pmem.Yield_e
          | Pmem.Crash_now_e | Pmem.Validating_e _ | Pmem.My_tid_e ->
              Some (fun (k : (a, unit) continuation) -> th.tstate <- Op (eff, k))
          | Pmem.Join_e target ->
              Some
                (fun (k : (a, unit) continuation) ->
                  th.tstate <-
                    (match get_state st target with
                    | Done -> Op (eff, k)
                    | Start _ | Op _ | Waiting _ | Woken _ -> Waiting (target, k)))
          | _ -> None)
    }

(* The op a suspended thread performed, run when the scheduler picks the
   thread.  An exception it raises is delivered into the performing
   thread (like a failing syscall), not into the scheduler. *)
and run_op : type a. state -> int -> a Effect.t -> a =
 fun st tid eff ->
  match eff with
  | Pmem.Store_e r -> exec_store st tid r
  | Pmem.Load_e r -> exec_load st tid r
  | Pmem.Cas_e r -> exec_cas st tid r
  | Pmem.Flush_e r -> exec_flush st tid r
  | Pmem.Fence_e fk -> exec_fence st tid fk
  | Pmem.Alloc_e (size, align) -> exec_alloc st (size, align)
  | Pmem.Spawn_e fn -> add_thread st (Start fn)
  | Pmem.Join_e _ -> ()
  | Pmem.Yield_e -> ()
  | Pmem.Crash_now_e -> ()
  | Pmem.Validating_e on ->
      let th = st.threads.(tid) in
      th.validating <- (if on then th.validating + 1 else max 0 (th.validating - 1))
  | Pmem.My_tid_e -> tid
  | _ -> invalid_arg "Executor: unhandled effect"

and resume st tid = function
  | Start fn -> start_thread st tid fn
  | Op (eff, k) -> (
      match run_op st tid eff with
      | v -> Effect.Deep.continue k v
      | exception e -> Effect.Deep.discontinue k e)
  | Woken k -> Effect.Deep.continue k ()
  | Waiting _ | Done -> assert false

(* ------------------------------------------------------------------ *)
(* Scheduling                                                           *)

let is_ready st tid =
  match st.threads.(tid).tstate with
  | Start _ | Op _ | Woken _ -> true
  | Waiting _ | Done -> false

(* Ready threads are considered in tid (= spawn) order.  The scans are
   top-level functions so that picking a thread allocates nothing. *)
let rec first_ready st i stop =
  if i >= stop then -1 else if is_ready st i then i else first_ready st (i + 1) stop

let rec count_ready st i acc =
  if i >= st.n_threads then acc
  else count_ready st (i + 1) (if is_ready st i then acc + 1 else acc)

let rec nth_ready st i j =
  if not (is_ready st i) then nth_ready st (i + 1) j
  else if j = 0 then i
  else nth_ready st (i + 1) (j - 1)

(* The next thread to run, or -1 when none is ready. *)
let pick_next st =
  let tid =
    match st.sched with
    | Random_sched ->
        let ready = count_ready st 0 0 in
        (* The draw [Rng.pick] makes over the list of ready tids. *)
        if ready = 0 then -1 else nth_ready st 0 (Rng.int st.rng ready)
    | Round_robin -> (
        (* First ready tid at or after the cursor, wrapping. *)
        match first_ready st st.rr_cursor st.n_threads with
        | -1 -> first_ready st 0 (min st.rr_cursor st.n_threads)
        | tid -> tid)
  in
  if tid >= 0 then st.rr_cursor <- tid + 1;
  tid

(* Tear down every thread; buffered work is lost. *)
let rec first_live st tid =
  if tid >= st.n_threads then -1
  else match st.threads.(tid).tstate with Done -> first_live st (tid + 1) | _ -> tid

let rec teardown_threads st =
  match first_live st 0 with
  | -1 -> ()
  | tid ->
      let th = st.threads.(tid) in
      let s = th.tstate in
      th.tstate <- Done;
      (match s with
      | Op (_, k) -> Effect.Deep.discontinue k Crash_signal
      | Waiting (_, k) | Woken k -> Effect.Deep.discontinue k Crash_signal
      | Start _ | Done -> ());
      teardown_threads st

let do_crash st =
  Metrics.incr m_crashes;
  st.crashed <- true;
  st.crashed_at_op <- Some st.ops;
  st.crash_state <-
    Some (Machine.crash ~heap_break:st.heap_break st.machine ~strategy:st.cut);
  teardown_threads st

(* A budget fired: terminate the runaway phase.  Unlike a crash this is
   not a simulated power failure — the phase is killed and the scenario
   chain stops here — but the durable state is still materialized (as a
   crash cut) so callers can inspect what the runaway left behind. *)
let do_diverge st ~budget =
  Metrics.incr m_divergences;
  st.diverged <- true;
  if Observe.Trace.recording () then
    Observe.Trace.instant ~cat:"executor" "diverged"
      ~args:
        [
          ("phase", phase_name st.exec_id);
          ("plan", plan_label st.plan);
          ("budget", budget);
          ("ops", string_of_int st.ops);
        ];
  teardown_threads st

(* Which budget, if any, is exhausted?  Fuel counts every scheduled
   operation (meta ops included, so a yield-spin cannot dodge it) and
   is deterministic; the wall-clock budget is a last-resort valve and
   inherently run-dependent.  Budgets trip at scheduling points only: a
   loop with no [Pmem] operation in its body cannot be preempted. *)
let budget_exhausted st =
  match st.max_ops with
  | Some m when st.fuel_used >= m -> Some "max_ops"
  | Some _ | None -> (
      match st.deadline with
      | Some d when Unix.gettimeofday () >= d -> Some "max_wall_s"
      | Some _ | None -> None)

let should_crash st kind =
  match kind with
  | Op_crash_req -> true
  | Op_meta -> false
  | Op_mem | Op_flushpt -> (
      match st.plan with
      | Run_to_end | Crash_at_end -> false
      | Crash_before_op n -> st.ops = n
      | Crash_before_flush n -> kind = Op_flushpt && st.flush_points = n)

let sched_loop st =
  let continue_loop = ref true in
  while !continue_loop do
    (match budget_exhausted st with
    | Some budget when not (st.crashed || st.diverged) -> do_diverge st ~budget
    | Some _ | None -> ());
    match pick_next st with
    | -1 -> continue_loop := false
    | tid ->
        let th = st.threads.(tid) in
        let s = th.tstate in
        let kind = kind_of_state s in
        if should_crash st kind then do_crash st
        else begin
          st.fuel_used <- st.fuel_used + 1;
          (match kind with
          | Op_mem -> st.ops <- st.ops + 1
          | Op_flushpt ->
              st.ops <- st.ops + 1;
              st.flush_points <- st.flush_points + 1
          | Op_meta | Op_crash_req -> ());
          (* Mark running before resuming so a re-suspend can overwrite. *)
          th.tstate <- Done;
          resume st tid s;
          if not st.crashed then Machine.background st.machine
        end
  done

(* ------------------------------------------------------------------ *)

let run ?detector ?inherited ?(plan = Run_to_end) ?(sb_policy = Machine.Eager)
    ?(variant = Px86.Variant.strict_tso) ?(cut = Machine.Cut_all)
    ?(sched = Round_robin) ?(seed = 0) ?(check_candidates = true) ?max_ops
    ?max_wall_s ?observer:extra ~exec_id fn =
  let span_t0 =
    if Observe.Trace.recording () then Some (Observe.Trace.now_us ()) else None
  in
  let att = Observe.Attribution.is_enabled () in
  let att_t0 = if att then Observe.Trace.now_us () else 0 in
  let rng = Rng.create seed in
  let observer =
    match detector with
    | Some d ->
        ignore (Yashme.Detector.begin_exec d ~id:exec_id);
        Yashme.Detector.observer d
    | None -> Px86.Observer.nop
  in
  let observer =
    match extra with
    | Some o -> Px86.Observer.combine observer o
    | None -> observer
  in
  let machine =
    Machine.create ?inherited ~exec_id
      { Machine.sb_policy; variant; rng = Rng.split rng; observer }
  in
  let heap_break =
    match inherited with
    | Some c -> c.Px86.Crashstate.heap_break
    | None -> Px86.Addr.line_size
  in
  let st =
    {
      detector;
      check_candidates;
      machine;
      cut;
      plan;
      sched;
      rng;
      exec_id;
      max_ops;
      deadline = Option.map (fun s -> Unix.gettimeofday () +. s) max_wall_s;
      pc = all_phase_counters.(phase_of_exec_id exec_id);
      threads = [| { tstate = Start fn; validating = 0 } |];
      n_threads = 1;
      rr_cursor = 0;
      heap_break;
      ops = 0;
      fuel_used = 0;
      flush_points = 0;
      crashed = false;
      diverged = false;
      crash_state = None;
      crashed_at_op = None;
      error = None;
    }
  in
  sched_loop st;
  (match st.error with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  let state, outcome =
    if st.diverged then begin
      (* The runaway was killed mid-flight: materialize durable state
         as a crash cut (buffers lost), but report [Diverged] so the
         harness never mistakes this for a planned crash. *)
      (Machine.crash ~heap_break:st.heap_break machine ~strategy:cut, Diverged)
    end
    else
      match st.crash_state with
      | Some cs -> (cs, Crashed)
      | None ->
          let heap_break = st.heap_break in
          let cs =
            match plan with
            | Crash_at_end -> Machine.crash ~heap_break machine ~strategy:cut
            | Run_to_end | Crash_before_op _ | Crash_before_flush _ ->
                Machine.shutdown ~heap_break machine
          in
          (cs, Completed)
  in
  Metrics.observe h_ops st.ops;
  if att then
    Observe.Attribution.charge att_phase_centers.(phase_of_exec_id exec_id)
      ~count:1 ~units:st.ops
      ~wall_us:(Observe.Trace.now_us () - att_t0);
  (match span_t0 with
  | Some ts ->
      Observe.Trace.complete ~cat:"executor"
        ~args:
          [
            ("phase", phase_name exec_id);
            ("exec_id", string_of_int exec_id);
            ("plan", plan_label plan);
            ("ops", string_of_int st.ops);
            ("outcome", outcome_label outcome);
          ]
        ~ts_us:ts
        ~dur_us:(Observe.Trace.now_us () - ts)
        "exec"
  | None -> ());
  { outcome; state; ops = st.ops; flush_points = st.flush_points;
    crashed_at_op = st.crashed_at_op }
