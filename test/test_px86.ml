(* Tests for the Px86 machine model: addresses, the Table-1 reordering
   matrix, memory images, store buffers (TSO FIFO + clwb overtaking +
   forwarding), the persistence domain (flush cuts, candidates), and the
   machine itself (bypassing, coherence order, crash materialization,
   store-buffer volatility). *)

module Clockvec = Yashme_util.Clockvec
module Rng = Yashme_util.Rng
open Px86

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)

(* ------------------------------------------------------------------ *)
(* Addr                                                                 *)

let test_addr_lines () =
  check_int "line of 0" 0 (Addr.line 0);
  check_int "line of 63" 0 (Addr.line 63);
  check_int "line of 64" 1 (Addr.line 64);
  check "same line" true (Addr.same_line 10 63);
  check "different line" false (Addr.same_line 63 64);
  check_int "line base" 64 (Addr.line_base 100);
  Alcotest.(check (list int)) "covering one line" [ 1 ] (Addr.lines_covering 64 64);
  Alcotest.(check (list int)) "straddling" [ 0; 1 ] (Addr.lines_covering 60 8)

(* ------------------------------------------------------------------ *)
(* Reorder: spot-check every interesting cell of Table 1                *)

let test_reorder_matrix () =
  let req e l sl = Reorder.required ~earlier:e ~later:l ~same_line:sl in
  (* Read row: everything ordered. *)
  List.iter
    (fun l -> check "read row" true (req Reorder.Read l false))
    Reorder.all_kinds;
  (* Write row. *)
  check "W->R reorders" false (req Reorder.Write Reorder.Read false);
  check "W->W ordered" true (req Reorder.Write Reorder.Write false);
  check "W->clfopt same line" true (req Reorder.Write Reorder.Clflushopt true);
  check "W->clfopt other line" false (req Reorder.Write Reorder.Clflushopt false);
  check "W->clf ordered" true (req Reorder.Write Reorder.Clflush_k false);
  check "W->sfence ordered" true (req Reorder.Write Reorder.Sfence_k false);
  (* RMW and mfence rows: everything ordered. *)
  List.iter
    (fun l ->
      check "rmw row" true (req Reorder.Rmw l false);
      check "mfence row" true (req Reorder.Mfence_k l false))
    Reorder.all_kinds;
  (* sfence row. *)
  check "sfence->R reorders" false (req Reorder.Sfence_k Reorder.Read false);
  check "sfence->clfopt ordered" true (req Reorder.Sfence_k Reorder.Clflushopt false);
  (* clflushopt row. *)
  check "clfopt->W reorders" false (req Reorder.Clflushopt Reorder.Write false);
  check "clfopt->clfopt reorders" false (req Reorder.Clflushopt Reorder.Clflushopt true);
  check "clfopt->clf same line" true (req Reorder.Clflushopt Reorder.Clflush_k true);
  check "clfopt->clf other line" false (req Reorder.Clflushopt Reorder.Clflush_k false);
  check "clfopt->mfence ordered" true (req Reorder.Clflushopt Reorder.Mfence_k false);
  check "clfopt->sfence ordered" true (req Reorder.Clflushopt Reorder.Sfence_k false);
  (* clflush row. *)
  check "clf->W ordered" true (req Reorder.Clflush_k Reorder.Write false);
  check "clf->clfopt same line" true (req Reorder.Clflush_k Reorder.Clflushopt true);
  check "clf->clfopt other line" false (req Reorder.Clflush_k Reorder.Clflushopt false);
  check "clf->clf ordered" true (req Reorder.Clflush_k Reorder.Clflush_k false)

let test_reorder_table_renders () =
  let t = Reorder.table () in
  check "mentions clflushopt" true
    (String.length t > 100 && String.contains t 'Y' && String.contains t 'x')

(* ------------------------------------------------------------------ *)
(* Memimage                                                             *)

let test_memimage_rw () =
  let m = Memimage.create () in
  Memimage.write m ~addr:100 ~size:8 ~value:0x1122334455667788L;
  check_i64 "read back" 0x1122334455667788L (Memimage.read m ~addr:100 ~size:8);
  check_i64 "unwritten is zero" 0L (Memimage.read m ~addr:5000 ~size:8);
  check_i64 "partial read low" 0x55667788L (Memimage.read m ~addr:100 ~size:4);
  check_i64 "partial read high" 0x11223344L (Memimage.read m ~addr:104 ~size:4)

let test_memimage_byte_overwrite () =
  let m = Memimage.create () in
  Memimage.write m ~addr:0 ~size:8 ~value:(-1L);
  Memimage.write m ~addr:2 ~size:1 ~value:0L;
  check_i64 "byte poked" 0xFFFFFFFFFF00FFFFL (Memimage.read m ~addr:0 ~size:8)

let test_memimage_grow () =
  let m = Memimage.create () in
  Memimage.write m ~addr:100_000 ~size:8 ~value:7L;
  check_i64 "grows on demand" 7L (Memimage.read m ~addr:100_000 ~size:8);
  check_int "extent" 100_008 (Memimage.extent m)

let test_memimage_copy_isolated () =
  let m = Memimage.create () in
  Memimage.write m ~addr:8 ~size:8 ~value:1L;
  let c = Memimage.copy m in
  Memimage.write m ~addr:8 ~size:8 ~value:2L;
  check_i64 "copy unaffected" 1L (Memimage.read c ~addr:8 ~size:8)

let test_memimage_blit_line () =
  let src = Memimage.create () and dst = Memimage.create () in
  Memimage.write src ~addr:64 ~size:8 ~value:99L;
  Memimage.blit_line ~src ~dst 1;
  check_i64 "line copied" 99L (Memimage.read dst ~addr:64 ~size:8)

let test_memimage_bad_size () =
  let m = Memimage.create () in
  Alcotest.check_raises "size 0" (Invalid_argument "Memimage: size must be in 1..8")
    (fun () -> ignore (Memimage.read m ~addr:0 ~size:0))

(* ------------------------------------------------------------------ *)
(* Store buffer                                                         *)

let mk_store ?(tid = 0) ?(lclk = 0) ?(addr = 0) ?(size = 8) ?(value = 0L)
    ?(access = Access.Plain) () =
  { Event.seq = -1; tid; lclk; cv = Clockvec.empty; addr; size; value; access;
    nt = false; label = None }

let mk_flush ?(tid = 0) ?(addr = 0) kind =
  { Event.fseq = -1; ftid = tid; flclk = 0; fcv = Clockvec.empty; faddr = addr; kind }

(* ------------------------------------------------------------------ *)
(* Access & Event helpers                                               *)

let test_access_classification () =
  check "plain not atomic" false (Access.is_atomic Access.Plain);
  check "relaxed atomic" true (Access.is_atomic (Access.Atomic Access.Relaxed));
  check "plain not release" false (Access.is_release Access.Plain);
  check "relaxed not release" false (Access.is_release (Access.Atomic Access.Relaxed));
  check "release is release" true (Access.is_release (Access.Atomic Access.Release));
  check "acq_rel is release" true (Access.is_release (Access.Atomic Access.Acq_rel));
  check "seq_cst is release" true (Access.is_release (Access.Atomic Access.Seq_cst));
  check "acquire not release" false (Access.is_release (Access.Atomic Access.Acquire));
  check "acquire is acquire" true (Access.is_acquire (Access.Atomic Access.Acquire));
  check "release not acquire" false (Access.is_acquire (Access.Atomic Access.Release));
  Alcotest.(check string) "to_string" "atomic(release)"
    (Access.to_string (Access.Atomic Access.Release))

(* ------------------------------------------------------------------ *)
(* Event coverage helpers                                                *)

let test_event_covers_overlaps () =
  let s = mk_store ~addr:16 ~size:8 () in
  check "covers exact" true (Event.store_covers s 16 8);
  check "covers inner" true (Event.store_covers s 18 4);
  check "not covers wider" false (Event.store_covers s 16 16);
  check "not covers before" false (Event.store_covers s 8 8);
  check "overlaps left edge" true (Event.store_overlaps s 10 8);
  check "overlaps right edge" true (Event.store_overlaps s 23 8);
  check "no overlap" false (Event.store_overlaps s 24 8);
  check "no overlap before" false (Event.store_overlaps s 0 16)


let test_sb_fifo () =
  let sb = Store_buffer.create () in
  check "fresh empty" true (Store_buffer.is_empty sb);
  Store_buffer.push sb (Store_buffer.Store (mk_store ~addr:0 ~value:1L ()));
  Store_buffer.push sb (Store_buffer.Store (mk_store ~addr:8 ~value:2L ()));
  check_int "length" 2 (Store_buffer.length sb);
  (* Only the head store may leave first: stores never reorder. *)
  Alcotest.(check (list int)) "stores evict in order" [ 0 ] (Store_buffer.evictable sb);
  (match Store_buffer.take sb 0 with
  | Store_buffer.Store s -> check_i64 "head first" 1L s.Event.value
  | _ -> Alcotest.fail "expected store");
  check_int "one left" 1 (Store_buffer.length sb)

let test_sb_clwb_overtakes_other_line () =
  let sb = Store_buffer.create () in
  Store_buffer.push sb (Store_buffer.Store (mk_store ~addr:0 ()));
  Store_buffer.push sb (Store_buffer.Flush (mk_flush ~addr:128 Event.Clwb));
  (* clflushopt may pass a store to a different cache line. *)
  Alcotest.(check (list int)) "clwb can overtake" [ 0; 1 ] (Store_buffer.evictable sb)

let test_sb_clwb_blocked_same_line () =
  let sb = Store_buffer.create () in
  Store_buffer.push sb (Store_buffer.Store (mk_store ~addr:0 ()));
  Store_buffer.push sb (Store_buffer.Flush (mk_flush ~addr:32 Event.Clwb));
  Alcotest.(check (list int)) "same line keeps order" [ 0 ] (Store_buffer.evictable sb)

let test_sb_clflush_never_overtakes_store () =
  let sb = Store_buffer.create () in
  Store_buffer.push sb (Store_buffer.Store (mk_store ~addr:0 ()));
  Store_buffer.push sb (Store_buffer.Flush (mk_flush ~addr:512 Event.Clflush));
  (* Write -> clflush is ordered even across lines. *)
  Alcotest.(check (list int)) "clflush stays behind" [ 0 ] (Store_buffer.evictable sb)

let test_sb_clwb_blocked_by_sfence () =
  let sb = Store_buffer.create () in
  Store_buffer.push sb
    (Store_buffer.Sfence { Event.ktid = 0; klclk = 0; kcv = Clockvec.empty;
                           kkind = Event.Sfence });
  Store_buffer.push sb (Store_buffer.Flush (mk_flush ~addr:512 Event.Clwb));
  Alcotest.(check (list int)) "sfence fences clwb" [ 0 ] (Store_buffer.evictable sb)

let test_sb_forwarding () =
  let sb = Store_buffer.create () in
  Store_buffer.push sb (Store_buffer.Store (mk_store ~addr:16 ~value:1L ()));
  Store_buffer.push sb (Store_buffer.Store (mk_store ~addr:16 ~value:2L ()));
  (match Store_buffer.forward sb ~addr:16 ~size:8 with
  | Store_buffer.Covered s -> check_i64 "newest wins" 2L s.Event.value
  | _ -> Alcotest.fail "expected coverage");
  (match Store_buffer.forward sb ~addr:16 ~size:4 with
  | Store_buffer.Covered _ -> ()
  | _ -> Alcotest.fail "smaller load covered");
  (match Store_buffer.forward sb ~addr:12 ~size:8 with
  | Store_buffer.Partial -> ()
  | _ -> Alcotest.fail "overlap should stall");
  match Store_buffer.forward sb ~addr:64 ~size:8 with
  | Store_buffer.Miss -> ()
  | _ -> Alcotest.fail "expected miss"

(* ------------------------------------------------------------------ *)
(* Flush buffer                                                         *)

let test_fb_drain_order () =
  let fb = Flush_buffer.create () in
  check "fresh empty" true (Flush_buffer.is_empty fb);
  Flush_buffer.add fb (mk_flush ~addr:0 Event.Clwb);
  Flush_buffer.add fb (mk_flush ~addr:64 Event.Clwb);
  Alcotest.(check (list int)) "pending oldest first" [ 0; 64 ]
    (List.map (fun (f : Event.flush) -> f.Event.faddr) (Flush_buffer.pending fb));
  let drained = ref [] in
  Flush_buffer.drain fb (fun (f : Event.flush) -> drained := f.Event.faddr :: !drained);
  Alcotest.(check (list int)) "drained all, oldest first" [ 0; 64 ] (List.rev !drained);
  check "empty after drain" true (Flush_buffer.is_empty fb)

(* ------------------------------------------------------------------ *)
(* Persistence domain                                                   *)

let committed ?(seq = 0) ?(addr = 0) ?(value = 0L) () =
  let s = mk_store ~addr ~value () in
  s.Event.seq <- seq;
  s

let test_pers_candidates_unflushed () =
  let p = Persistence.create () in
  Persistence.commit_store p (committed ~seq:1 ~addr:0 ~value:1L ());
  Persistence.commit_store p (committed ~seq:2 ~addr:0 ~value:2L ());
  let cands = Persistence.candidates p ~addr:0 ~size:8 in
  Alcotest.(check (list int)) "both candidates (no flush)" [ 1; 2 ]
    (List.map (fun (s : Event.store) -> s.Event.seq) cands)

let test_pers_candidates_flushed () =
  let p = Persistence.create () in
  Persistence.commit_store p (committed ~seq:1 ~addr:0 ~value:1L ());
  Persistence.flush_line p ~line:0 ~seq:2;
  Persistence.commit_store p (committed ~seq:3 ~addr:0 ~value:2L ());
  let cands = Persistence.candidates p ~addr:0 ~size:8 in
  Alcotest.(check (list int)) "flushed base + later" [ 1; 3 ]
    (List.map (fun (s : Event.store) -> s.Event.seq) cands);
  (* Flushing past the second store leaves only it. *)
  Persistence.flush_line p ~line:0 ~seq:4;
  let cands = Persistence.candidates p ~addr:0 ~size:8 in
  Alcotest.(check (list int)) "only the durable store" [ 3 ]
    (List.map (fun (s : Event.store) -> s.Event.seq) cands)

let test_pers_flush_monotone () =
  let p = Persistence.create () in
  Persistence.flush_line p ~line:3 ~seq:10;
  Persistence.flush_line p ~line:3 ~seq:5;
  check_int "cut never decreases" 10 (Persistence.cut_lb p 3)

let test_pers_straddling_store () =
  let p = Persistence.create () in
  Persistence.commit_store p (committed ~seq:1 ~addr:60 ~value:1L ());
  (* A store straddling lines 0 and 1 is indexed on both. *)
  check_int "on line 0" 1 (List.length (Persistence.line_stores p 0));
  check_int "on line 1" 1 (List.length (Persistence.line_stores p 1))

let test_pers_latest_at_or_below () =
  let p = Persistence.create () in
  Persistence.commit_store p (committed ~seq:1 ~addr:0 ~value:1L ());
  Persistence.commit_store p (committed ~seq:5 ~addr:0 ~value:2L ());
  (match Persistence.latest_at_or_below p ~addr:0 ~size:8 ~cut:3 with
  | Some s -> check_int "cut 3 selects seq 1" 1 s.Event.seq
  | None -> Alcotest.fail "expected a store");
  match Persistence.latest_at_or_below p ~addr:0 ~size:8 ~cut:0 with
  | None -> ()
  | Some _ -> Alcotest.fail "nothing at cut 0"

(* ------------------------------------------------------------------ *)
(* Machine                                                              *)

let machine ?(policy = Machine.Eager) ?(seed = 0) () =
  Machine.create ~exec_id:0
    { Machine.sb_policy = policy; variant = Variant.strict_tso;
      rng = Rng.create seed; observer = Observer.nop }

(* The executor calls [background] between instructions; these wrappers
   do the same for direct machine tests. *)
let store_d m ~tid ~addr ~size ~value ~access =
  Machine.store m ~tid ~addr ~size ~value ~access ~label:None;
  Machine.background m

let clflush_d m ~tid ~addr =
  Machine.clflush m ~tid ~addr;
  Machine.background m

let clwb_d m ~tid ~addr =
  Machine.clwb m ~tid ~addr;
  Machine.background m

let sfence_d m ~tid =
  Machine.sfence m ~tid;
  Machine.background m

let test_machine_store_load () =
  let m = machine () in
  store_d m ~tid:0 ~addr:0 ~size:8 ~value:42L ~access:Access.Plain;
  let v, src = Machine.load m ~tid:0 ~addr:0 ~size:8 ~access:Access.Plain in
  check_i64 "load sees store" 42L v;
  match src with
  | Machine.From_cache _ -> ()
  | _ -> Alcotest.fail "expected cache read under eager policy"

let test_machine_bypass () =
  (* With a lazy policy the store sits in the buffer: the owning thread
     sees it (bypassing); another thread does not (TSO). *)
  let m = machine ~policy:(Machine.Random_drain 0.0) () in
  Machine.store m ~tid:0 ~addr:0 ~size:8 ~value:7L ~access:Access.Plain ~label:None;
  let v0, src0 = Machine.load m ~tid:0 ~addr:0 ~size:8 ~access:Access.Plain in
  check_i64 "own store forwarded" 7L v0;
  (match src0 with
  | Machine.From_buffer _ -> ()
  | _ -> Alcotest.fail "expected store-buffer forwarding");
  let v1, _ = Machine.load m ~tid:1 ~addr:0 ~size:8 ~access:Access.Plain in
  check_i64 "other thread sees old value" 0L v1;
  check_int "one buffered store" 1 (Machine.buffered_stores m)

let test_machine_mfence_drains () =
  let m = machine ~policy:(Machine.Random_drain 0.0) () in
  Machine.store m ~tid:0 ~addr:0 ~size:8 ~value:7L ~access:Access.Plain ~label:None;
  Machine.mfence m ~tid:0;
  check_int "buffer empty after mfence" 0 (Machine.buffered_stores m);
  let v, _ = Machine.load m ~tid:1 ~addr:0 ~size:8 ~access:Access.Plain in
  check_i64 "visible to others" 7L v

let test_machine_cas () =
  let m = machine () in
  store_d m ~tid:0 ~addr:8 ~size:8 ~value:1L ~access:Access.Plain;
  let ok, observed, _ = Machine.cas m ~tid:1 ~addr:8 ~size:8 ~expected:1L ~desired:2L ~label:None in
  check "cas succeeds" true ok;
  check_i64 "cas observed" 1L observed;
  let ok2, observed2, _ = Machine.cas m ~tid:1 ~addr:8 ~size:8 ~expected:1L ~desired:3L ~label:None in
  check "cas fails" false ok2;
  check_i64 "cas sees new value" 2L observed2

let test_machine_sb_lost_on_crash () =
  let m = machine ~policy:(Machine.Random_drain 0.0) () in
  Machine.store m ~tid:0 ~addr:0 ~size:8 ~value:9L ~access:Access.Plain ~label:None;
  let cs = Machine.crash m ~strategy:Machine.Cut_all in
  check_i64 "buffered store never persisted" 0L
    (Memimage.read cs.Crashstate.image ~addr:0 ~size:8);
  check "no origin" true (Crashstate.find_origin cs ~addr:0 ~size:8 = None)

let test_machine_committed_unflushed_may_persist () =
  let m = machine () in
  store_d m ~tid:0 ~addr:0 ~size:8 ~value:9L ~access:Access.Plain;
  let all = Machine.crash m ~strategy:Machine.Cut_all in
  check_i64 "Cut_all keeps it" 9L (Memimage.read all.Crashstate.image ~addr:0 ~size:8)

let test_machine_lowerbound_cut_drops_unflushed () =
  let m = machine () in
  store_d m ~tid:0 ~addr:0 ~size:8 ~value:9L ~access:Access.Plain;
  let lb = Machine.crash m ~strategy:Machine.Cut_lowerbound in
  check_i64 "Cut_lowerbound drops it" 0L (Memimage.read lb.Crashstate.image ~addr:0 ~size:8)

let test_machine_clflush_persists () =
  let m = machine () in
  store_d m ~tid:0 ~addr:0 ~size:8 ~value:9L ~access:Access.Plain;
  clflush_d m ~tid:0 ~addr:0;
  let lb = Machine.crash m ~strategy:Machine.Cut_lowerbound in
  check_i64 "flushed store survives any cut" 9L
    (Memimage.read lb.Crashstate.image ~addr:0 ~size:8)

let test_machine_clwb_needs_fence () =
  let m = machine () in
  store_d m ~tid:0 ~addr:0 ~size:8 ~value:9L ~access:Access.Plain;
  clwb_d m ~tid:0 ~addr:0;
  let lb = Machine.crash m ~strategy:Machine.Cut_lowerbound in
  check_i64 "clwb alone does not guarantee" 0L
    (Memimage.read lb.Crashstate.image ~addr:0 ~size:8);
  (* Same again, with the fence. *)
  let m = machine () in
  store_d m ~tid:0 ~addr:0 ~size:8 ~value:9L ~access:Access.Plain;
  clwb_d m ~tid:0 ~addr:0;
  sfence_d m ~tid:0;
  let lb = Machine.crash m ~strategy:Machine.Cut_lowerbound in
  check_i64 "clwb+sfence guarantees" 9L
    (Memimage.read lb.Crashstate.image ~addr:0 ~size:8)

let test_machine_same_line_prefix_cut () =
  (* Same-line stores persist in order: a cut can drop the second store
     but never keep it while dropping the first. *)
  let m = machine () in
  store_d m ~tid:0 ~addr:0 ~size:8 ~value:1L ~access:Access.Plain;
  store_d m ~tid:0 ~addr:8 ~size:8 ~value:2L ~access:Access.Plain;
  let rng = Rng.create 11 in
  for _ = 1 to 50 do
    let m' = machine () in
    store_d m' ~tid:0 ~addr:0 ~size:8 ~value:1L ~access:Access.Plain;
    store_d m' ~tid:0 ~addr:8 ~size:8 ~value:2L ~access:Access.Plain;
    let cs = Machine.crash m' ~strategy:(Machine.Cut_random (Rng.split rng)) in
    let a = Memimage.read cs.Crashstate.image ~addr:0 ~size:8 in
    let b = Memimage.read cs.Crashstate.image ~addr:8 ~size:8 in
    check "no second-without-first" false (a = 0L && b = 2L)
  done;
  ignore m

let test_machine_crash_candidates () =
  let m = machine () in
  store_d m ~tid:0 ~addr:0 ~size:8 ~value:1L ~access:Access.Plain;
  clflush_d m ~tid:0 ~addr:0;
  store_d m ~tid:0 ~addr:0 ~size:8 ~value:2L ~access:Access.Plain;
  let cs = Machine.crash m ~strategy:Machine.Cut_all in
  let cands = Crashstate.find_candidates cs ~addr:0 ~size:8 in
  Alcotest.(check (list int64)) "flushed base plus later store" [ 1L; 2L ]
    (List.map (fun (o : Crashstate.origin) -> o.Crashstate.store.Event.value) cands)

let test_machine_shutdown_concrete () =
  let m = machine () in
  store_d m ~tid:0 ~addr:0 ~size:8 ~value:5L ~access:Access.Plain;
  let cs = Machine.shutdown m in
  check_i64 "shutdown persists" 5L (Memimage.read cs.Crashstate.image ~addr:0 ~size:8);
  check_int "single candidate" 1
    (List.length (Crashstate.find_candidates cs ~addr:0 ~size:8))

let test_machine_inherited_chain () =
  let m = machine () in
  store_d m ~tid:0 ~addr:0 ~size:8 ~value:5L ~access:Access.Plain;
  let cs = Machine.shutdown m in
  let m2 =
    Machine.create ~inherited:cs ~exec_id:1
      { Machine.sb_policy = Machine.Eager; variant = Variant.strict_tso;
        rng = Rng.create 0; observer = Observer.nop }
  in
  let v, src = Machine.load m2 ~tid:0 ~addr:0 ~size:8 ~access:Access.Plain in
  check_i64 "reads inherited value" 5L v;
  (match src with
  | Machine.From_crash (o, _) -> check_int "origin from exec 0" 0 o.Crashstate.exec_id
  | _ -> Alcotest.fail "expected From_crash");
  (* Overwrite in exec 1, then crash: origin moves to exec 1. *)
  Machine.store m2 ~tid:0 ~addr:0 ~size:8 ~value:6L ~access:Access.Plain ~label:None;
  Machine.background m2;
  let cs2 = Machine.crash m2 ~strategy:Machine.Cut_all in
  match Crashstate.find_origin cs2 ~addr:0 ~size:8 with
  | Some (o, _) -> check_int "origin from exec 1" 1 o.Crashstate.exec_id
  | None -> Alcotest.fail "expected origin"

let test_machine_acquire_joins_cv () =
  let m = machine () in
  store_d m ~tid:0 ~addr:0 ~size:8 ~value:1L ~access:(Access.Atomic Access.Release);
  let _ = Machine.load m ~tid:1 ~addr:0 ~size:8 ~access:(Access.Atomic Access.Acquire) in
  let cv = Machine.thread_cv m ~tid:1 in
  check "synchronizes-with" true (Clockvec.get cv 0 >= 1)

let test_machine_nt_store_durable_after_fence () =
  let m = machine () in
  Machine.store ~nt:true m ~tid:0 ~addr:0 ~size:8 ~value:7L ~access:Access.Plain
    ~label:None;
  Machine.background m;
  Machine.sfence m ~tid:0;
  Machine.background m;
  let lb = Machine.crash m ~strategy:Machine.Cut_lowerbound in
  check_i64 "fenced movnt survives any cut" 7L
    (Memimage.read lb.Crashstate.image ~addr:0 ~size:8)

let test_machine_nt_store_not_durable_without_fence () =
  let m = machine () in
  Machine.store ~nt:true m ~tid:0 ~addr:0 ~size:8 ~value:7L ~access:Access.Plain
    ~label:None;
  Machine.background m;
  let lb = Machine.crash m ~strategy:Machine.Cut_lowerbound in
  check_i64 "unfenced movnt may be lost" 0L
    (Memimage.read lb.Crashstate.image ~addr:0 ~size:8)

let test_machine_nt_does_not_cover_neighbours () =
  (* A fenced movnt makes only ITSELF durable, not earlier plain stores
     on the same line (movnt bypasses the cache's line granularity). *)
  let m = machine () in
  store_d m ~tid:0 ~addr:0 ~size:8 ~value:1L ~access:Access.Plain;
  Machine.store ~nt:true m ~tid:0 ~addr:8 ~size:8 ~value:2L ~access:Access.Plain
    ~label:None;
  Machine.background m;
  Machine.sfence m ~tid:0;
  Machine.background m;
  let lb = Machine.crash m ~strategy:Machine.Cut_lowerbound in
  check_i64 "movnt durable" 2L (Memimage.read lb.Crashstate.image ~addr:8 ~size:8);
  check_i64 "plain neighbour not covered" 0L
    (Memimage.read lb.Crashstate.image ~addr:0 ~size:8)

(* Random-drain policy: whatever interleaving of evictions happens, TSO
   per-thread store order is preserved in the cache commit order. *)
let prop_random_drain_fifo =
  QCheck.Test.make ~name:"random drain preserves per-thread store order" ~count:50
    QCheck.(int_bound 10_000) (fun seed ->
      let committed = ref [] in
      let observer =
        { Observer.nop with
          Observer.on_store_commit = (fun s -> committed := s :: !committed) }
      in
      let m =
        Machine.create ~exec_id:0
          { Machine.sb_policy = Machine.Random_drain 0.3;
            variant = Variant.strict_tso; rng = Rng.create seed;
            observer }
      in
      for i = 1 to 10 do
        Machine.store m ~tid:0 ~addr:(8 * i) ~size:8 ~value:(Int64.of_int i)
          ~access:Access.Plain ~label:None
      done;
      Machine.background m;
      Machine.drain_all_sb m;
      let order =
        List.rev_map (fun (s : Event.store) -> Int64.to_int s.Event.value) !committed
      in
      order = List.sort compare order)

(* Any eviction order the store buffer permits satisfies every pairwise
   Table-1 constraint: if the matrix requires (earlier, later) order for
   two buffered entries, the earlier one always leaves first. *)
let sb_entry_gen =
  QCheck.Gen.(
    list_size (int_range 2 10)
      (frequency
         [
           (4, map (fun slot -> `Store (slot * 32)) (int_bound 3));
           (2, map (fun slot -> `Clwb (slot * 32)) (int_bound 3));
           (2, map (fun slot -> `Clflush (slot * 32)) (int_bound 3));
           (1, return `Sfence);
         ]))

let sb_entry_arb =
  QCheck.make
    ~print:(fun es ->
      String.concat ";"
        (List.map
           (function
             | `Store a -> Printf.sprintf "st@%d" a
             | `Clwb a -> Printf.sprintf "clwb@%d" a
             | `Clflush a -> Printf.sprintf "clf@%d" a
             | `Sfence -> "sfence")
           es))
    sb_entry_gen

let entry_of = function
  | `Store a -> Store_buffer.Store (mk_store ~addr:a ())
  | `Clwb a -> Store_buffer.Flush (mk_flush ~addr:a Event.Clwb)
  | `Clflush a -> Store_buffer.Flush (mk_flush ~addr:a Event.Clflush)
  | `Sfence ->
      Store_buffer.Sfence
        { Event.ktid = 0; klclk = 0; kcv = Clockvec.empty; kkind = Event.Sfence }

let kind_of = function
  | `Store _ -> Reorder.Write
  | `Clwb _ -> Reorder.Clflushopt
  | `Clflush _ -> Reorder.Clflush_k
  | `Sfence -> Reorder.Sfence_k

let line_of = function
  | `Store a | `Clwb a | `Clflush a -> Some (Addr.line a)
  | `Sfence -> None

let prop_sb_legal_orders =
  QCheck.Test.make ~name:"store-buffer evictions satisfy Table 1" ~count:150
    (QCheck.pair sb_entry_arb QCheck.(int_bound 10_000)) (fun (descr, seed) ->
      let sb = Store_buffer.create () in
      (* Tag each description with its program-order position. *)
      let tagged = List.mapi (fun i d -> (i, d)) descr in
      List.iter (fun d -> Store_buffer.push sb (entry_of d)) descr;
      (* Drain in a random legal order, recovering each evicted entry's
         program position by matching its identity. *)
      let rng = Rng.create seed in
      let remaining = ref tagged in
      let order = ref [] in
      while not (Store_buffer.is_empty sb) do
        let idx = Rng.pick rng (Store_buffer.evictable sb) in
        ignore (Store_buffer.take sb idx);
        (* [evictable] indexes [entries]; mirror the removal. *)
        let rec remove i = function
          | [] -> []
          | x :: rest -> if i = idx then rest else x :: remove (i + 1) rest
        in
        let evicted = List.nth !remaining idx in
        remaining := remove 0 !remaining;
        order := fst evicted :: !order
      done;
      let eviction_rank = List.mapi (fun rank pos -> (pos, rank)) (List.rev !order) in
      let rank pos = List.assoc pos eviction_rank in
      (* Check every required pair kept its order. *)
      List.for_all
        (fun (i, di) ->
          List.for_all
            (fun (j, dj) ->
              if i >= j then true
              else
                let same_line =
                  match line_of di, line_of dj with
                  | Some a, Some b -> a = b
                  | _ -> false
                in
                if Reorder.required ~earlier:(kind_of di) ~later:(kind_of dj) ~same_line
                then rank i < rank j
                else true)
            tagged)
        tagged)

let prop_sb_forward_newest =
  QCheck.Test.make ~name:"forwarding returns the newest covering store" ~count:150
    (QCheck.pair
       (QCheck.make
          QCheck.Gen.(list_size (int_range 1 8) (pair (int_bound 3) (int_bound 100))))
       QCheck.(int_bound 3))
    (fun (stores, target) ->
      let sb = Store_buffer.create () in
      List.iter
        (fun (slot, v) ->
          Store_buffer.push sb
            (Store_buffer.Store (mk_store ~addr:(slot * 8) ~value:(Int64.of_int v) ())))
        stores;
      let expected =
        List.fold_left
          (fun acc (slot, v) -> if slot = target then Some (Int64.of_int v) else acc)
          None stores
      in
      match Store_buffer.forward sb ~addr:(target * 8) ~size:8, expected with
      | Store_buffer.Covered s, Some v -> s.Event.value = v
      | Store_buffer.Miss, None -> true
      | _ -> false)

(* Under any drain policy a flushed store survives every crash cut. *)
let prop_flushed_survives =
  QCheck.Test.make ~name:"flushed stores survive every cut" ~count:50
    QCheck.(pair (int_bound 10_000) (int_bound 5)) (fun (seed, nstores) ->
      let m =
        Machine.create ~exec_id:0
          { Machine.sb_policy = Machine.Random_drain 0.5;
            variant = Variant.strict_tso; rng = Rng.create seed;
            observer = Observer.nop }
      in
      let n = nstores + 1 in
      for i = 1 to n do
        Machine.store m ~tid:0 ~addr:(64 * i) ~size:8 ~value:(Int64.of_int i)
          ~access:Access.Plain ~label:None;
        Machine.clflush m ~tid:0 ~addr:(64 * i)
      done;
      Machine.mfence m ~tid:0;
      let cs = Machine.crash m ~strategy:(Machine.Cut_random (Rng.create (seed + 1))) in
      List.for_all
        (fun i ->
          Memimage.read cs.Crashstate.image ~addr:(64 * i) ~size:8 = Int64.of_int i)
        (List.init n (fun i -> i + 1)))

(* ------------------------------------------------------------------ *)
(* Differential tests against the replaced implementations              *)

(* Reference models: the list-based store and flush buffers, the
   double-reverse committed-read search and the sort-based crash
   materialization that the allocation-lean versions replaced.  They are
   kept here, test-only, as oracles: every swapped structure must agree
   with its reference on random operation sequences. *)
module Ref_store_buffer = struct
  type t = { mutable items : Store_buffer.entry list (* oldest first *) }

  let create () = { items = [] }
  let push t e = t.items <- t.items @ [ e ]

  let kind_of_entry = function
    | Store_buffer.Store _ -> Reorder.Write
    | Store_buffer.Flush { kind = Event.Clflush; _ } -> Reorder.Clflush_k
    | Store_buffer.Flush { kind = Event.Clwb; _ } -> Reorder.Clflushopt
    | Store_buffer.Sfence _ -> Reorder.Sfence_k

  let line_of_entry = function
    | Store_buffer.Store s -> Some (Addr.line s.Event.addr)
    | Store_buffer.Flush f -> Some (Addr.line f.Event.faddr)
    | Store_buffer.Sfence _ -> None

  let may_overtake ~older:d ~newer:e =
    let same_line =
      match line_of_entry d, line_of_entry e with Some a, Some b -> a = b | _ -> false
    in
    not (Reorder.required ~earlier:(kind_of_entry d) ~later:(kind_of_entry e) ~same_line)

  let evictable t =
    let rec scan i olders = function
      | [] -> []
      | e :: rest ->
          let ok = List.for_all (fun d -> may_overtake ~older:d ~newer:e) olders in
          let tail = scan (i + 1) (olders @ [ e ]) rest in
          if ok then i :: tail else tail
    in
    scan 0 [] t.items

  let take t i =
    let rec split j acc = function
      | [] -> invalid_arg "Ref_store_buffer.take"
      | e :: rest ->
          if j = i then begin
            t.items <- List.rev_append acc rest;
            e
          end
          else split (j + 1) (e :: acc) rest
    in
    split 0 [] t.items

  let forward t ~addr ~size =
    let rec scan = function
      | [] -> Store_buffer.Miss
      | Store_buffer.Store s :: rest ->
          if Event.store_covers s addr size then Store_buffer.Covered s
          else if Event.store_overlaps s addr size then Store_buffer.Partial
          else scan rest
      | (Store_buffer.Flush _ | Store_buffer.Sfence _) :: rest -> scan rest
    in
    scan (List.rev t.items)
end

let ref_newest_covering p ~addr ~size =
  let rec newest_covering = function
    | [] -> None
    | (s : Event.store) :: rest ->
        if Event.store_covers s addr size then Some s else newest_covering rest
  in
  newest_covering (List.rev (Persistence.line_stores p (Addr.line addr)))

let ref_covering_stores p ~addr ~size =
  List.filter
    (fun s -> Event.store_covers s addr size)
    (List.rev (Persistence.line_stores p (Addr.line addr)))

let ref_latest_at_or_below p ~addr ~size ~cut =
  List.find_opt
    (fun (s : Event.store) -> s.Event.seq <= cut || Persistence.is_durable_nt p s)
    (ref_covering_stores p ~addr ~size)

let ref_candidates p ~addr ~size =
  let lb = Persistence.cut_lb p (Addr.line addr) in
  let durable (s : Event.store) = s.Event.seq <= lb || Persistence.is_durable_nt p s in
  let rec split acc = function
    | [] -> acc
    | (s : Event.store) :: rest -> if durable s then s :: acc else split (s :: acc) rest
  in
  split [] (ref_covering_stores p ~addr ~size)

let ref_line_cut p ~strategy line =
  let lb = Persistence.cut_lb p line in
  let later =
    List.filter (fun (s : Event.store) -> s.Event.seq > lb) (Persistence.line_stores p line)
  in
  match strategy with
  | Machine.Cut_all -> List.fold_left (fun acc (s : Event.store) -> max acc s.Event.seq) lb later
  | Machine.Cut_lowerbound -> lb
  | Machine.Cut_random rng ->
      Rng.pick rng (lb :: List.map (fun (s : Event.store) -> s.Event.seq) later)

(* The crash materialization as it was: cuts per line, a global sort of
   the persisted stores, and one candidate search per (addr, size). *)
let ref_crash m ~strategy =
  let p = Machine.persistence m and inherited = Machine.inherited m in
  let exec_id = Machine.exec_id m in
  let image = Memimage.copy inherited.Crashstate.image in
  let origins = Hashtbl.copy inherited.Crashstate.origins in
  let cands = Hashtbl.copy inherited.Crashstate.cands in
  let cuts = Hashtbl.create 16 in
  List.iter
    (fun line -> Hashtbl.replace cuts line (ref_line_cut p ~strategy line))
    (Persistence.lines p);
  Persistence.lines p
  |> List.concat_map (fun line ->
         let cut = Hashtbl.find cuts line in
         Persistence.line_stores p line
         |> List.filter (fun (s : Event.store) ->
                (s.Event.seq <= cut || Persistence.is_durable_nt p s)
                && Addr.line s.Event.addr = line))
  |> List.sort (fun (a : Event.store) b -> compare a.Event.seq b.Event.seq)
  |> List.iter (fun (s : Event.store) ->
         Memimage.write image ~addr:s.Event.addr ~size:s.Event.size ~value:s.Event.value;
         let origin = { Crashstate.store = s; exec_id } in
         for i = 0 to s.Event.size - 1 do
           Hashtbl.replace origins (s.Event.addr + i) origin
         done);
  let groups = Hashtbl.create 64 in
  List.iter
    (fun line ->
      List.iter
        (fun (s : Event.store) ->
          if Addr.line s.Event.addr = line then
            Hashtbl.replace groups (s.Event.addr, s.Event.size) ())
        (Persistence.line_stores p line))
    (Persistence.lines p);
  Hashtbl.iter
    (fun (addr, size) () ->
      let this_exec =
        List.map
          (fun s -> { Crashstate.store = s; exec_id })
          (ref_candidates p ~addr ~size)
      in
      let lb = Persistence.cut_lb p (Addr.line addr) in
      let merged =
        if ref_latest_at_or_below p ~addr ~size ~cut:lb <> None then this_exec
        else Crashstate.find_candidates inherited ~addr ~size @ this_exec
      in
      Hashtbl.replace cands (addr, size) merged)
    groups;
  (image, origins, cands)

(* Structural views for comparison; stores compare by identity. *)
let same_origin (a : Crashstate.origin) (b : Crashstate.origin) =
  a.Crashstate.store == b.Crashstate.store && a.Crashstate.exec_id = b.Crashstate.exec_id

let sorted_bindings tbl =
  List.sort (fun (a, _) (b, _) -> compare a b) (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let same_crash (cs : Crashstate.t) (image, origins, cands) =
  let img = cs.Crashstate.image in
  let bytes_equal =
    Memimage.footprint img = Memimage.footprint image
    && Memimage.extent img = Memimage.extent image
    && List.for_all
         (fun a -> Memimage.read img ~addr:a ~size:1 = Memimage.read image ~addr:a ~size:1)
         (List.init (Memimage.footprint img) Fun.id)
  in
  let same_tbl same a b =
    let a = sorted_bindings a and b = sorted_bindings b in
    List.length a = List.length b
    && List.for_all2 (fun (ka, va) (kb, vb) -> ka = kb && same va vb) a b
  in
  bytes_equal
  && same_tbl same_origin cs.Crashstate.origins origins
  && same_tbl
       (fun a b -> List.length a = List.length b && List.for_all2 same_origin a b)
       cs.Crashstate.cands cands

(* Random machine programs: a few threads, stores of every size
   (including line-straddling and non-temporal ones), flushes, fences
   and CASes over three cache lines, under both drain policies. *)
type minstr =
  | I_store of int * int * int * bool  (** tid, addr, size, nt *)
  | I_clwb of int * int
  | I_clflush of int * int
  | I_sfence of int
  | I_mfence of int
  | I_cas of int * int
  | I_bg

let minstr_gen =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map
            (fun (tid, (addr, size), nt) -> I_store (tid, addr, size, nt))
            (triple (int_bound 2)
               (pair (int_bound 180) (oneofl [ 1; 2; 4; 8 ]))
               (frequency [ (5, return false); (1, return true) ])) );
        (2, map2 (fun tid a -> I_clwb (tid, a)) (int_bound 2) (int_bound 180));
        (1, map2 (fun tid a -> I_clflush (tid, a)) (int_bound 2) (int_bound 180));
        (2, map (fun tid -> I_sfence tid) (int_bound 2));
        (1, map (fun tid -> I_mfence tid) (int_bound 2));
        (1, map2 (fun tid slot -> I_cas (tid, slot * 8)) (int_bound 2) (int_bound 22));
        (3, return I_bg);
      ])

let run_minstrs m prog =
  List.iteri
    (fun i ins ->
      match ins with
      | I_store (tid, addr, size, nt) ->
          Machine.store ~nt m ~tid ~addr ~size ~value:(Int64.of_int (i + 1))
            ~access:Access.Plain ~label:None
      | I_clwb (tid, addr) -> Machine.clwb m ~tid ~addr
      | I_clflush (tid, addr) -> Machine.clflush m ~tid ~addr
      | I_sfence tid -> Machine.sfence m ~tid
      | I_mfence tid -> Machine.mfence m ~tid
      | I_cas (tid, addr) ->
          ignore
            (Machine.cas m ~tid ~addr ~size:8 ~expected:0L ~desired:(Int64.of_int (i + 1))
               ~label:None)
      | I_bg -> Machine.background m)
    prog

let crash_case_gen =
  QCheck.Gen.(
    quad
      (list_size (int_range 0 25) minstr_gen)
      (list_size (int_range 1 40) minstr_gen)
      (pair (int_bound 3) (int_bound 2))
      (pair (int_bound 10_000) bool))

let crash_case_arb =
  QCheck.make
    ~print:(fun (pre, post, (policy, strat), (seed, inherits)) ->
      Printf.sprintf "pre=%d post=%d policy=%d strategy=%d seed=%d inherits=%b"
        (List.length pre) (List.length post) policy strat seed inherits)
    crash_case_gen

let prop_crash_matches_reference =
  QCheck.Test.make ~name:"crash materialization matches the reference" ~count:300
    crash_case_arb (fun (pre, post, (policy, strat), (seed, inherits)) ->
      let variant =
        List.nth [ Variant.strict_tso; Variant.epoch; Variant.relaxed; Variant.fence_nop ] policy
      in
      let sb_policy = if policy mod 2 = 0 then Machine.Eager else Machine.Random_drain 0.5 in
      let mk ?inherited ~exec_id () =
        Machine.create ?inherited ~exec_id
          { Machine.sb_policy; variant; rng = Rng.create seed; observer = Observer.nop }
      in
      let strategy () =
        match strat with
        | 0 -> Machine.Cut_all
        | 1 -> Machine.Cut_lowerbound
        | _ -> Machine.Cut_random (Rng.create (seed + 1))
      in
      let inherited =
        if inherits then begin
          let m0 = mk ~exec_id:1 () in
          run_minstrs m0 pre;
          Some (Machine.crash m0 ~strategy:(strategy ()))
        end
        else None
      in
      let m = mk ?inherited ~exec_id:2 () in
      run_minstrs m post;
      let s1 = strategy () and s2 = strategy () in
      let cs = Machine.crash m ~strategy:s1 in
      let expected = ref_crash m ~strategy:s2 in
      (* Cut_random: both sides must also have made the same draws. *)
      let same_draws =
        match s1, s2 with
        | Machine.Cut_random a, Machine.Cut_random b -> Rng.int a 1_000_000 = Rng.int b 1_000_000
        | _ -> true
      in
      same_crash cs expected && same_draws)

(* Committed-store searches on the persistence domain. *)
let prop_newest_covering_matches_reference =
  QCheck.Test.make ~name:"persistence searches match the reference" ~count:300
    QCheck.(
      pair
        (make
           Gen.(
             list_size (int_range 0 30)
               (triple (int_bound 180) (oneofl [ 1; 2; 4; 8 ]) (int_bound 4))))
        (make Gen.(list_size (int_range 1 20) (pair (int_bound 180) (oneofl [ 1; 2; 4; 8 ])))))
    (fun (stores, queries) ->
      let p = Persistence.create () in
      List.iteri
        (fun i (addr, size, action) ->
          let s = { (mk_store ~addr ~size ()) with Event.seq = i + 1 } in
          Persistence.commit_store p s;
          match action with
          | 0 -> Persistence.flush_line p ~line:(Addr.line addr) ~seq:(i + 1)
          | 1 -> Persistence.mark_durable p s
          | _ -> ())
        stores;
      List.for_all
        (fun (addr, size) ->
          let cut = List.length stores / 2 in
          let same_opt a b =
            match a, b with Some x, Some y -> x == y | None, None -> true | _ -> false
          in
          same_opt (Persistence.newest_covering p ~addr ~size) (ref_newest_covering p ~addr ~size)
          && same_opt
               (Persistence.latest_at_or_below p ~addr ~size ~cut)
               (ref_latest_at_or_below p ~addr ~size ~cut)
          && (let a = Persistence.candidates p ~addr ~size
              and b = ref_candidates p ~addr ~size in
              List.length a = List.length b && List.for_all2 ( == ) a b))
        queries)

type sb_op = Sb_push of Store_buffer.entry | Sb_take of int | Sb_forward of int * int

let sb_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun slot -> Sb_push (entry_of (`Store (slot * 8)))) (int_bound 15));
        (2, map (fun slot -> Sb_push (entry_of (`Clwb (slot * 32)))) (int_bound 3));
        (2, map (fun slot -> Sb_push (entry_of (`Clflush (slot * 32)))) (int_bound 3));
        (1, return (Sb_push (entry_of `Sfence)));
        (4, map (fun k -> Sb_take k) (int_bound 1000));
        (3, map2 (fun a size -> Sb_forward (a, size)) (int_bound 130) (oneofl [ 1; 2; 4; 8 ]));
      ])

let prop_sb_matches_reference =
  QCheck.Test.make ~name:"ring store buffer matches the list model" ~count:300
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
       QCheck.Gen.(list_size (int_range 0 80) sb_op_gen))
    (fun ops ->
      let sb = Store_buffer.create () and model = Ref_store_buffer.create () in
      let same_entries () =
        let a = Store_buffer.entries sb and b = model.Ref_store_buffer.items in
        List.length a = List.length b
        && List.for_all2 ( == ) a b
        && Store_buffer.length sb = List.length b
        && Store_buffer.is_empty sb = (b = [])
      in
      List.for_all
        (fun op ->
          (match op with
          | Sb_push e ->
              Store_buffer.push sb e;
              Ref_store_buffer.push model e;
              true
          | Sb_take k -> (
              let ev = Store_buffer.evictable sb in
              ev = Ref_store_buffer.evictable model
              &&
              match ev with
              | [] -> true
              | _ ->
                  let i = List.nth ev (k mod List.length ev) in
                  Store_buffer.take sb i == Ref_store_buffer.take model i)
          | Sb_forward (addr, size) -> (
              match
                Store_buffer.forward sb ~addr ~size, Ref_store_buffer.forward model ~addr ~size
              with
              | Store_buffer.Covered a, Store_buffer.Covered b -> a == b
              | Store_buffer.Partial, Store_buffer.Partial | Store_buffer.Miss, Store_buffer.Miss
                ->
                  true
              | _ -> false))
          && same_entries ())
        ops
      &&
      (* Drain oldest first, as the machine does. *)
      let rec drain () =
        Store_buffer.is_empty sb
        || (Store_buffer.take sb 0 == Ref_store_buffer.take model 0 && drain ())
      in
      drain () && model.Ref_store_buffer.items = [])

let prop_fb_matches_reference =
  QCheck.Test.make ~name:"ring flush buffer matches the list model" ~count:300
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
       QCheck.Gen.(list_size (int_range 0 80) (int_bound 9)))
    (fun ops ->
      let fb = Flush_buffer.create () and model = ref [] in
      List.for_all
        (fun op ->
          (match op with
          | 0 | 1 ->
              let got = ref [] in
              Flush_buffer.drain fb (fun f -> got := f :: !got);
              let want = !model in
              model := [];
              List.length !got = List.length want && List.for_all2 ( == ) (List.rev !got) want
          | k ->
              let f = mk_flush ~addr:(k * 64) Event.Clwb in
              Flush_buffer.add fb f;
              model := !model @ [ f ];
              true)
          &&
          let pending = Flush_buffer.pending fb in
          List.length pending = List.length !model
          && List.for_all2 ( == ) pending !model
          && Flush_buffer.is_empty fb = (!model = []))
        ops)

let () =
  Alcotest.run "px86"
    [
      ("addr", [ Alcotest.test_case "lines" `Quick test_addr_lines ]);
      ( "access-event",
        [
          Alcotest.test_case "access classification" `Quick test_access_classification;
          Alcotest.test_case "covers/overlaps" `Quick test_event_covers_overlaps;
        ] );
      ( "reorder",
        [
          Alcotest.test_case "table-1 matrix" `Quick test_reorder_matrix;
          Alcotest.test_case "table renders" `Quick test_reorder_table_renders;
        ] );
      ( "memimage",
        [
          Alcotest.test_case "read/write" `Quick test_memimage_rw;
          Alcotest.test_case "byte overwrite" `Quick test_memimage_byte_overwrite;
          Alcotest.test_case "grow" `Quick test_memimage_grow;
          Alcotest.test_case "copy isolation" `Quick test_memimage_copy_isolated;
          Alcotest.test_case "blit line" `Quick test_memimage_blit_line;
          Alcotest.test_case "bad size" `Quick test_memimage_bad_size;
        ] );
      ( "store-buffer",
        [
          Alcotest.test_case "fifo" `Quick test_sb_fifo;
          Alcotest.test_case "clwb overtakes other line" `Quick
            test_sb_clwb_overtakes_other_line;
          Alcotest.test_case "clwb blocked same line" `Quick
            test_sb_clwb_blocked_same_line;
          Alcotest.test_case "clflush never overtakes store" `Quick
            test_sb_clflush_never_overtakes_store;
          Alcotest.test_case "clwb blocked by sfence" `Quick
            test_sb_clwb_blocked_by_sfence;
          Alcotest.test_case "forwarding" `Quick test_sb_forwarding;
        ] );
      ("flush-buffer", [ Alcotest.test_case "drain order" `Quick test_fb_drain_order ]);
      ( "persistence",
        [
          Alcotest.test_case "candidates unflushed" `Quick test_pers_candidates_unflushed;
          Alcotest.test_case "candidates flushed" `Quick test_pers_candidates_flushed;
          Alcotest.test_case "flush monotone" `Quick test_pers_flush_monotone;
          Alcotest.test_case "straddling store" `Quick test_pers_straddling_store;
          Alcotest.test_case "latest at or below" `Quick test_pers_latest_at_or_below;
        ] );
      ( "machine",
        [
          Alcotest.test_case "store/load" `Quick test_machine_store_load;
          Alcotest.test_case "TSO bypass" `Quick test_machine_bypass;
          Alcotest.test_case "mfence drains" `Quick test_machine_mfence_drains;
          Alcotest.test_case "cas" `Quick test_machine_cas;
          Alcotest.test_case "SB lost on crash" `Quick test_machine_sb_lost_on_crash;
          Alcotest.test_case "unflushed may persist" `Quick
            test_machine_committed_unflushed_may_persist;
          Alcotest.test_case "lowerbound cut" `Quick
            test_machine_lowerbound_cut_drops_unflushed;
          Alcotest.test_case "clflush persists" `Quick test_machine_clflush_persists;
          Alcotest.test_case "clwb needs fence" `Quick test_machine_clwb_needs_fence;
          Alcotest.test_case "same-line cut order" `Quick test_machine_same_line_prefix_cut;
          Alcotest.test_case "crash candidates" `Quick test_machine_crash_candidates;
          Alcotest.test_case "shutdown concrete" `Quick test_machine_shutdown_concrete;
          Alcotest.test_case "inherited chain" `Quick test_machine_inherited_chain;
          Alcotest.test_case "acquire joins cv" `Quick test_machine_acquire_joins_cv;
          Alcotest.test_case "nt durable after fence" `Quick
            test_machine_nt_store_durable_after_fence;
          Alcotest.test_case "nt needs fence" `Quick
            test_machine_nt_store_not_durable_without_fence;
          Alcotest.test_case "nt precision" `Quick test_machine_nt_does_not_cover_neighbours;
        ] );
      ( "machine-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_random_drain_fifo;
            prop_flushed_survives;
            prop_sb_legal_orders;
            prop_sb_forward_newest;
          ] );
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sb_matches_reference;
            prop_fb_matches_reference;
            prop_newest_covering_matches_reference;
            prop_crash_matches_reference;
          ] );
    ]
