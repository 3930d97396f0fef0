(* Tests for the effects-based runtime: the Pmem API surface, the
   executor's scheduling, crash plans, thread teardown, allocation,
   roots, determinism, and error propagation. *)

open Pm_runtime

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)

let run ?plan ?sched ?seed fn = Executor.run ?plan ?sched ?seed ~exec_id:0 fn

(* ------------------------------------------------------------------ *)
(* Basic API                                                            *)

let test_store_load_roundtrip () =
  let got = ref 0L in
  let _ = run (fun () ->
      let a = Pmem.alloc 8 in
      Pmem.store a 123L;
      got := Pmem.load a)
  in
  check_i64 "roundtrip" 123L !got

let test_sizes () =
  let ok = ref true in
  let _ = run (fun () ->
      let a = Pmem.alloc 16 in
      Pmem.store ~size:1 a 0xABL;
      Pmem.store ~size:2 (a + 2) 0xCDEFL;
      Pmem.store ~size:4 (a + 4) 0x12345678L;
      ok :=
        Pmem.load ~size:1 a = 0xABL
        && Pmem.load ~size:2 (a + 2) = 0xCDEFL
        && Pmem.load ~size:4 (a + 4) = 0x12345678L)
  in
  check "sized accesses" true !ok

let test_bytes_roundtrip () =
  let got = ref "" in
  let _ = run (fun () ->
      let a = Pmem.alloc 64 in
      Pmem.store_bytes a "hello, persistent world";
      got := Pmem.load_bytes a (String.length "hello, persistent world"))
  in
  Alcotest.(check string) "bytes roundtrip" "hello, persistent world" !got

let test_memset () =
  let ok = ref false in
  let _ = run (fun () ->
      let a = Pmem.alloc 32 in
      Pmem.memset a '\xFF' 20;
      ok :=
        Pmem.load ~size:8 a = -1L
        && Pmem.load ~size:4 (a + 16) = 0xFFFFFFFFL
        && Pmem.load ~size:4 (a + 20) = 0L)
  in
  check "memset range" true !ok

let test_cas_api () =
  let r = ref (false, false) in
  let _ = run (fun () ->
      let a = Pmem.alloc 8 in
      Pmem.store a 5L;
      let ok1 = Pmem.cas a ~expected:5L ~desired:6L in
      let ok2 = Pmem.cas a ~expected:5L ~desired:7L in
      r := (ok1, ok2))
  in
  check "first cas wins" true (fst !r);
  check "second cas fails" false (snd !r)

let test_alloc_alignment () =
  let addrs = ref [] in
  let _ = run (fun () ->
      let a = Pmem.alloc ~align:64 10 in
      let b = Pmem.alloc ~align:64 10 in
      let c = Pmem.alloc 8 in
      addrs := [ a; b; c ])
  in
  match !addrs with
  | [ a; b; c ] ->
      check_int "aligned a" 0 (a mod 64);
      check_int "aligned b" 0 (b mod 64);
      check "no overlap" true (b >= a + 10 && c >= b + 10)
  | _ -> Alcotest.fail "expected three allocations"

let test_alloc_invalid () =
  let exercised = ref false in
  let _ = run (fun () ->
      (try ignore (Pmem.alloc 0) with Invalid_argument _ -> exercised := true);
      (try ignore (Pmem.alloc ~align:3 8) with Invalid_argument _ -> ()))
  in
  check "bad alloc rejected" true !exercised

let test_roots () =
  let got = ref 0 in
  let _ = run (fun () ->
      let a = Pmem.alloc 8 in
      Pmem.set_root 3 a;
      got := Pmem.get_root 3)
  in
  check "root roundtrip" true (!got > 0);
  let bad = ref false in
  let _ = run (fun () -> try Pmem.set_root 9 1 with Invalid_argument _ -> bad := true) in
  check "slot range checked" true !bad

(* ------------------------------------------------------------------ *)
(* Threads                                                              *)

let test_spawn_join () =
  let sum = ref 0L in
  let _ = run (fun () ->
      let a = Pmem.alloc 32 in
      let ts =
        List.map
          (fun i ->
            Pmem.spawn (fun () -> Pmem.store (a + (8 * i)) (Int64.of_int (i + 1))))
          [ 0; 1; 2 ]
      in
      List.iter Pmem.join ts;
      sum :=
        Int64.add (Pmem.load a) (Int64.add (Pmem.load (a + 8)) (Pmem.load (a + 16))))
  in
  check_i64 "all threads ran" 6L !sum

let test_join_finished_thread () =
  let done_ = ref false in
  let _ = run (fun () ->
      let t = Pmem.spawn (fun () -> ()) in
      Pmem.yield ();
      Pmem.yield ();
      Pmem.join t;
      done_ := true)
  in
  check "join after finish returns" true !done_

let test_my_tid () =
  let tids = ref [] in
  let _ = run (fun () ->
      let t = Pmem.spawn (fun () -> tids := Pmem.my_tid () :: !tids) in
      Pmem.join t;
      tids := Pmem.my_tid () :: !tids)
  in
  Alcotest.(check (list int)) "main is 0, child is 1" [ 0; 1 ] !tids

let test_random_sched_deterministic () =
  let trace seed =
    let log = ref [] in
    let _ =
      run ~sched:Executor.Random_sched ~seed (fun () ->
          let a = Pmem.alloc 8 in
          let t1 = Pmem.spawn (fun () -> for _ = 1 to 5 do Pmem.store a 1L done) in
          let t2 = Pmem.spawn (fun () -> for _ = 1 to 5 do Pmem.store a 2L done) in
          Pmem.join t1;
          Pmem.join t2;
          log := [ Pmem.load a ])
    in
    !log
  in
  Alcotest.(check (list int64)) "same seed, same schedule" (trace 9) (trace 9)

(* ------------------------------------------------------------------ *)
(* Crash plans                                                          *)

let counter_program ~n () =
  let a = Pmem.alloc ~align:64 8 in
  Pmem.set_root 0 a;
  for i = 1 to n do
    Pmem.store a (Int64.of_int i);
    Pmem.clflush a;
    Pmem.mfence ()
  done

let read_counter state =
  let got = ref 0L in
  let _ =
    Executor.run ~inherited:state ~exec_id:1 (fun () ->
        got := Pmem.load (Pmem.get_root 0))
  in
  !got

let test_run_to_end () =
  let r = run ~plan:Executor.Run_to_end (counter_program ~n:3) in
  check "completed" true (r.Executor.outcome = Executor.Completed);
  check_i64 "all persisted" 3L (read_counter r.Executor.state)

let test_crash_at_end () =
  let r = run ~plan:Executor.Crash_at_end (counter_program ~n:3) in
  check "completed then crashed" true (r.Executor.outcome = Executor.Completed);
  check_i64 "cut-all keeps last value" 3L (read_counter r.Executor.state)

let test_crash_before_flush () =
  (* set_root accounts for flush points 0-1; iteration i's clflush is
     point 2i+2.  Crash before iteration 2's clflush: counter value 2 is
     committed but only 1 is flush-guaranteed. *)
  let r = run ~plan:(Executor.Crash_before_flush 4) (counter_program ~n:3) in
  check "crashed mid-run" true (r.Executor.outcome = Executor.Crashed);
  check_i64 "cut-all keeps committed value" 2L (read_counter r.Executor.state)

let test_crash_before_op () =
  let r = run ~plan:(Executor.Crash_before_op 0) (counter_program ~n:3) in
  check "crashed before anything" true (r.Executor.outcome = Executor.Crashed);
  check_int "no ops ran" 0 r.Executor.ops

let test_crash_now () =
  let r =
    run (fun () ->
        let a = Pmem.alloc 8 in
        Pmem.store a 1L;
        Pmem.crash_now ())
  in
  check "explicit crash" true (r.Executor.outcome = Executor.Crashed)

let test_crash_tears_down_threads () =
  (* All threads die at the crash; no code after the crash point runs. *)
  let after = ref false in
  let r =
    run ~plan:(Executor.Crash_before_flush 0) (fun () ->
        let a = Pmem.alloc 8 in
        let t = Pmem.spawn (fun () ->
            Pmem.store a 1L;
            Pmem.clflush a;
            after := true)
        in
        Pmem.join t;
        after := true)
  in
  check "crashed" true (r.Executor.outcome = Executor.Crashed);
  check "nothing ran past the crash" false !after

let test_ops_counted () =
  let r = run (fun () ->
      let a = Pmem.alloc 8 in
      Pmem.store a 1L;
      ignore (Pmem.load a);
      Pmem.clwb a;
      Pmem.sfence ())
  in
  check_int "ops" 4 r.Executor.ops;
  check_int "flush points" 2 r.Executor.flush_points

let test_exception_propagates () =
  Alcotest.check_raises "user exception escapes" (Failure "boom") (fun () ->
      ignore (run (fun () -> failwith "boom")))

let test_heap_break_persists () =
  let r1 = run ~plan:Executor.Crash_at_end (fun () -> ignore (Pmem.alloc 1000)) in
  let overlap = ref true in
  let _ =
    Executor.run ~inherited:r1.Executor.state ~exec_id:1 (fun () ->
        overlap := Pmem.alloc 8 < 1000)
  in
  check "allocator resumes past old break" false !overlap

let test_validating_nesting () =
  let _ = run (fun () ->
      Pmem.validating (fun () -> Pmem.validating (fun () -> ()));
      ())
  in
  ()

let test_deterministic_replay () =
  let fingerprint () =
    let r = run ~seed:5 ~plan:(Executor.Crash_before_flush 1) (counter_program ~n:4) in
    (r.Executor.ops, r.Executor.crashed_at_op)
  in
  check "same seed, same crash" true (fingerprint () = fingerprint ())


(* ------------------------------------------------------------------ *)
(* Allocation gate                                                      *)

(* Minor words allocated by [f] on this domain.  One domain, telemetry
   off: the count is a deterministic function of the code, so the
   ceilings below can sit close to the measured values. *)
let minor_words_of f =
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Marginal minor words per repetition of [body]: a run of [2n]
   repetitions minus a run of [n], divided by [n], so the fixed cost of a
   run (thread start, shutdown) cancels out. *)
let marginal_words ?sb_policy ~setup body () =
  let n = 500 in
  let words reps =
    minor_words_of (fun () ->
        ignore (Executor.run ?sb_policy ~exec_id:0 (fun () -> body (setup ()) reps)))
  in
  (words (2 * n) -. words n) /. float_of_int n

let cell () =
  let a = Pmem.alloc ~align:64 8 in
  Pmem.store a 1L;
  a

let repeat op a reps =
  for _ = 1 to reps do
    op a
  done

(* The per-op-kind cases, as (name, ceiling, measure).  [store] runs
   with a store buffer that never drains until shutdown and
   [clwb+sfence] is [reps] clwbs then one sfence, so both also price an
   append to a deep buffer: an append that copies the buffer (quadratic
   in its length) blows the ceiling.  Each ceiling sits about 25% above
   the value measured with OCaml 5.1.1 (load 31, store 80, clwb 38,
   yield 12, CCEH 67.3 words per op); EXPERIMENTS.md, "Hot-path
   allocation", has the history. *)
let alloc_cases =
  [
    ( "load",
      39.,
      fun () -> marginal_words ~setup:cell (repeat (fun a -> ignore (Pmem.load a))) () );
    ( "store",
      100.,
      fun () ->
        marginal_words ~sb_policy:(Px86.Machine.Random_drain 0.0) ~setup:cell
          (repeat (fun a -> Pmem.store a 2L))
          () );
    ( "clwb+sfence",
      48.,
      fun () ->
        marginal_words ~setup:cell
          (fun a reps ->
            repeat Pmem.clwb a reps;
            Pmem.sfence ())
          () );
    ("yield", 15., fun () -> marginal_words ~setup:cell (repeat (fun _ -> Pmem.yield ())) ());
    ( "CCEH model check",
      84.,
      fun () ->
        let ops = ref 0 in
        let words =
          minor_words_of (fun () ->
              let o =
                Pm_harness.Runner.model_check_outcome ~jobs:1
                  (Pm_benchmarks.Registry.find "CCEH")
              in
              List.iter
                (fun (_, r, _) ->
                  match r with
                  | Pm_harness.Engine.Completed c -> ops := !ops + c.Pm_harness.Engine.ops
                  | Pm_harness.Engine.Faulted f -> ops := !ops + f.Pm_harness.Engine.f_ops)
                o.Pm_harness.Runner.o_pairs)
        in
        words /. float_of_int !ops );
  ]

let test_alloc_per_op (name, ceiling, measure) () =
  let w = measure () in
  Printf.printf "%s: %.2f minor words/op (ceiling %.0f)\n" name w ceiling;
  if w > ceiling then
    Alcotest.failf "%s allocates %.2f minor words per op, above the ceiling %.0f" name w
      ceiling

let () =
  Alcotest.run "runtime"
    [
      ( "pmem-api",
        [
          Alcotest.test_case "store/load" `Quick test_store_load_roundtrip;
          Alcotest.test_case "sized accesses" `Quick test_sizes;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "memset" `Quick test_memset;
          Alcotest.test_case "cas" `Quick test_cas_api;
          Alcotest.test_case "alloc alignment" `Quick test_alloc_alignment;
          Alcotest.test_case "alloc invalid" `Quick test_alloc_invalid;
          Alcotest.test_case "roots" `Quick test_roots;
        ] );
      ( "threads",
        [
          Alcotest.test_case "spawn/join" `Quick test_spawn_join;
          Alcotest.test_case "join finished" `Quick test_join_finished_thread;
          Alcotest.test_case "my_tid" `Quick test_my_tid;
          Alcotest.test_case "random sched deterministic" `Quick
            test_random_sched_deterministic;
        ] );
      ( "crash-plans",
        [
          Alcotest.test_case "run to end" `Quick test_run_to_end;
          Alcotest.test_case "crash at end" `Quick test_crash_at_end;
          Alcotest.test_case "crash before flush" `Quick test_crash_before_flush;
          Alcotest.test_case "crash before op" `Quick test_crash_before_op;
          Alcotest.test_case "crash_now" `Quick test_crash_now;
          Alcotest.test_case "teardown" `Quick test_crash_tears_down_threads;
          Alcotest.test_case "op counting" `Quick test_ops_counted;
          Alcotest.test_case "exceptions propagate" `Quick test_exception_propagates;
          Alcotest.test_case "heap break persists" `Quick test_heap_break_persists;
          Alcotest.test_case "validating nesting" `Quick test_validating_nesting;
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
        ] );
      ( "alloc-gate",
        List.map
          (fun ((name, _, _) as c) -> Alcotest.test_case name `Quick (test_alloc_per_op c))
          alloc_cases );
    ]
