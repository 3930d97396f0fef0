module Clockvec = Yashme_util.Clockvec
module Rng = Yashme_util.Rng
module Metrics = Observe.Metrics

(* Storage-system effort counters: store-buffer drains, flush-buffer
   applies, write-combining persists and crash materializations. *)
let m_sb_evictions = Metrics.counter "px86/sb_evictions"
let m_fb_applies = Metrics.counter "px86/fb_applies"
let m_nt_persists = Metrics.counter "px86/nt_persists"
let m_crashes = Metrics.counter "px86/crash_materializations"
let h_crash_lines = Metrics.histogram "px86/crash_lines"

type sb_policy = Eager | Random_drain of float

(* Stable textual forms for serialized witnesses (lib/corpus).  The
   float uses %.17g so [sb_policy_of_label] recovers the exact bits. *)
let sb_policy_label = function
  | Eager -> "eager"
  | Random_drain p -> Printf.sprintf "random_drain:%.17g" p

let sb_policy_of_label s =
  match s with
  | "eager" -> Some Eager
  | _ -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "random_drain" -> (
          match
            float_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
          with
          | Some p -> Some (Random_drain p)
          | None -> None)
      | _ -> None)

type config = {
  sb_policy : sb_policy;
  variant : Variant.t;
  rng : Rng.t;
  observer : Observer.t;
}

type thread = {
  tid : int;
  mutable cv : Clockvec.t;
  mutable lclk : int;
  sb : Store_buffer.t;
  fb : Flush_buffer.t;
  mutable pending_nt : Event.store list;
      (* committed non-temporal stores not yet fenced (WC buffers) *)
}

type t = {
  cfg : config;
  exec_id : int;
  inherited : Crashstate.t;
  threads : (int, thread) Hashtbl.t;
  cache : Memimage.t;  (* committed state: inherited image + committed stores *)
  pers : Persistence.t;
  mutable seq : int;  (* global cache-commit order counter *)
  mutable sb_entries : int;  (* entries buffered across all store buffers *)
  crash_reads : (int, read_source) Hashtbl.t;
      (* memoized inherited lookups, keyed by [(addr lsl 4) lor size] *)
}

and read_source =
  | From_buffer of Event.store
  | From_cache of Event.store
  | From_crash of Crashstate.origin * Crashstate.origin list
  | From_init

(* States are immutable, so every fresh machine can share one boot
   state, across domains too. *)
let boot = Crashstate.boot ()

let create ?inherited ~exec_id cfg =
  let inherited, cache =
    match inherited with
    | Some c -> (c, Crashstate.hydrate c)
    | None -> (boot, Memimage.create ())
  in
  {
    cfg;
    exec_id;
    inherited;
    threads = Hashtbl.create 8;
    cache;
    pers = Persistence.create ();
    seq = 0;
    sb_entries = 0;
    crash_reads = Hashtbl.create 16;
  }

let exec_id t = t.exec_id
let inherited t = t.inherited
let persistence t = t.pers

let thread t tid =
  match Hashtbl.find t.threads tid with
  | th -> th
  | exception Not_found ->
      let th =
        { tid; cv = Clockvec.empty; lclk = 0;
          sb = Store_buffer.create (); fb = Flush_buffer.create ();
          pending_nt = [] }
      in
      Hashtbl.add t.threads tid th;
      th

let thread_cv t ~tid = (thread t tid).cv

let tick th =
  th.lclk <- th.lclk + 1;
  th.cv <- Clockvec.set th.cv th.tid th.lclk

let next_seq t =
  t.seq <- t.seq + 1;
  t.seq

let push t th entry =
  Store_buffer.push th.sb entry;
  t.sb_entries <- t.sb_entries + 1

let take t th i =
  t.sb_entries <- t.sb_entries - 1;
  Store_buffer.take th.sb i

(* ------------------------------------------------------------------ *)
(* Store-buffer eviction                                               *)

let apply_store t (s : Event.store) =
  s.Event.seq <- next_seq t;
  Memimage.write t.cache ~addr:s.Event.addr ~size:s.Event.size ~value:s.Event.value;
  Persistence.commit_store t.pers s;
  (if s.Event.nt then
     let th = Hashtbl.find t.threads s.Event.tid in
     th.pending_nt <- s :: th.pending_nt);
  t.cfg.observer.Observer.on_store_commit s

(* A fence also drains the write-combining buffers: every committed
   non-temporal store becomes durable on its own. *)
let drain_nt t th (fence : Event.fence) =
  match th.pending_nt with
  | [] -> ()
  | pending ->
      List.iter
        (fun (s : Event.store) ->
          Metrics.incr m_nt_persists;
          Persistence.mark_durable t.pers s;
          t.cfg.observer.Observer.on_nt_persisted s ~fence)
        (List.rev pending);
      th.pending_nt <- []

(* Epoch persistency: a fence acts as a persist barrier for the whole
   domain — every store committed before it is persist-ordered before
   anything after it.  We model the barrier as a synthetic flush of
   every touched line at the fence's position in commit order, reported
   through [on_flush_applied] so the detector learns it like any other
   fenced flush.  The flush clock is the join of all thread clocks: the
   barrier covers commits by every thread, not just the fencing one. *)
let epoch_barrier t (fence : Event.fence) =
  let cv =
    Hashtbl.fold (fun _ th acc -> Clockvec.join acc th.cv) t.threads Clockvec.empty
  in
  List.iter
    (fun line ->
      Persistence.flush_line t.pers ~line ~seq:t.seq;
      let f =
        { Event.fseq = t.seq; ftid = fence.Event.ktid;
          flclk = fence.Event.klclk; fcv = cv;
          faddr = line * Addr.line_size; kind = Event.Clwb }
      in
      t.cfg.observer.Observer.on_flush_applied f ~fence)
    (Persistence.lines t.pers)

(* [forced] drains regardless of the variant's fence semantics: clean
   shutdown and locked RMWs must empty the buffers even under
   [Fence_nop], where ordinary fences persist nothing. *)
let drain_flush_buffer ?(forced = false) t th (fence : Event.fence) =
  if forced || t.cfg.variant.Variant.fence = Variant.Fence_full then begin
    if not (Flush_buffer.is_empty th.fb) then
      Flush_buffer.drain th.fb (fun (f : Event.flush) ->
          Metrics.incr m_fb_applies;
          Persistence.flush_line t.pers ~line:(Addr.line f.Event.faddr) ~seq:f.Event.fseq;
          t.cfg.observer.Observer.on_flush_applied f ~fence);
    drain_nt t th fence;
    if t.cfg.variant.Variant.persist_order = Variant.Epoch_fenced then
      epoch_barrier t fence
  end

let apply_entry t th (entry : Store_buffer.entry) =
  Metrics.incr m_sb_evictions;
  match entry with
  | Store_buffer.Store s -> apply_store t s
  | Store_buffer.Flush ({ kind = Event.Clflush; _ } as f) ->
      f.Event.fseq <- next_seq t;
      Persistence.flush_line t.pers ~line:(Addr.line f.Event.faddr) ~seq:f.Event.fseq;
      t.cfg.observer.Observer.on_clflush_commit f
  | Store_buffer.Flush ({ kind = Event.Clwb; _ } as f) -> (
      f.Event.fseq <- next_seq t;
      match t.cfg.variant.Variant.fb_apply with
      | Variant.Fb_at_fence ->
          Flush_buffer.add th.fb f;
          t.cfg.observer.Observer.on_clwb_commit f
      | Variant.Fb_immediate ->
          (* CXL-flavoured: the write-back reaches the persistence domain
             at commit, unordered with respect to any fence.  Reported as
             a clflush commit so the detector records the applied flush
             (on_clwb_commit only notes the queueing). *)
          Metrics.incr m_fb_applies;
          Persistence.flush_line t.pers ~line:(Addr.line f.Event.faddr)
            ~seq:f.Event.fseq;
          t.cfg.observer.Observer.on_clflush_commit f)
  | Store_buffer.Sfence k ->
      ignore (next_seq t);
      drain_flush_buffer t th k;
      t.cfg.observer.Observer.on_fence k

let drain_sb t th =
  while not (Store_buffer.is_empty th.sb) do
    apply_entry t th (take t th 0)
  done

let drain_all_sb t =
  if t.sb_entries > 0 then Hashtbl.iter (fun _ th -> drain_sb t th) t.threads

let background t =
  match t.cfg.sb_policy with
  | _ when t.sb_entries = 0 -> ()
  | Eager -> drain_all_sb t
  | Random_drain p ->
      let nonempty () =
        Hashtbl.fold (fun _ th acc -> if Store_buffer.is_empty th.sb then acc else th :: acc)
          t.threads []
      in
      let rec loop () =
        match nonempty () with
        | [] -> ()
        | ths ->
            if Rng.chance t.cfg.rng p then begin
              let th = Rng.pick t.cfg.rng ths in
              let idx =
                match t.cfg.variant.Variant.sb_drain with
                | Variant.Drain_fifo -> 0
                | Variant.Drain_tso ->
                    Rng.pick t.cfg.rng (Store_buffer.evictable th.sb)
              in
              apply_entry t th (take t th idx);
              loop ()
            end
      in
      loop ()

(* ------------------------------------------------------------------ *)
(* Instructions                                                        *)

let store ?(nt = false) t ~tid ~addr ~size ~value ~access ~label =
  let th = thread t tid in
  tick th;
  let s =
    { Event.seq = -1; tid; lclk = th.lclk; cv = th.cv; addr; size; value; access; nt;
      label }
  in
  push t th (Store_buffer.Store s)

(* Where a load the cache cannot answer reads from in the inherited
   state.  The state never changes, so each (addr, size) walks its
   layers once per machine. *)
let crash_read t ~addr ~size =
  if t.inherited.Crashstate.depth = 0 then From_init
  else
    let key = (addr lsl 4) lor size in
    match Hashtbl.find t.crash_reads key with
    | source -> source
    | exception Not_found ->
        let source =
          match Crashstate.find_origin t.inherited ~addr ~size with
          | Some (origin, _torn) ->
              From_crash (origin, Crashstate.find_candidates t.inherited ~addr ~size)
          | None -> From_init
        in
        Hashtbl.add t.crash_reads key source;
        source

let cache_read t th ~addr ~size ~access =
  let value = Memimage.read t.cache ~addr ~size in
  let source =
    match Persistence.newest_covering t.pers ~addr ~size with
    | Some s -> From_cache s
    | None -> crash_read t ~addr ~size
  in
  (* Acquire loads synchronize-with the release store they read from. *)
  (if Access.is_acquire access then
     match source with
     | From_cache s when Access.is_release s.Event.access ->
         th.cv <- Clockvec.join th.cv s.Event.cv
     | From_cache _ | From_buffer _ | From_crash _ | From_init -> ());
  (value, source)

let load t ~tid ~addr ~size ~access =
  let th = thread t tid in
  tick th;
  if not t.cfg.variant.Variant.sb_bypass then begin
    (* No forwarding: every load stalls until the own buffer drains. *)
    drain_sb t th;
    cache_read t th ~addr ~size ~access
  end
  else
    match Store_buffer.forward th.sb ~addr ~size with
    | Store_buffer.Covered s -> (s.Event.value, From_buffer s)
    | Store_buffer.Partial ->
        (* Real hardware stalls partial forwarding; drain and read the cache. *)
        drain_sb t th;
        cache_read t th ~addr ~size ~access
    | Store_buffer.Miss -> cache_read t th ~addr ~size ~access

let clflush t ~tid ~addr =
  let th = thread t tid in
  tick th;
  let f =
    { Event.fseq = -1; ftid = tid; flclk = th.lclk; fcv = th.cv; faddr = addr;
      kind = Event.Clflush }
  in
  push t th (Store_buffer.Flush f)

let clwb t ~tid ~addr =
  let th = thread t tid in
  tick th;
  let f =
    { Event.fseq = -1; ftid = tid; flclk = th.lclk; fcv = th.cv; faddr = addr;
      kind = Event.Clwb }
  in
  push t th (Store_buffer.Flush f)

let sfence t ~tid =
  let th = thread t tid in
  tick th;
  let k = { Event.ktid = tid; klclk = th.lclk; kcv = th.cv; kkind = Event.Sfence } in
  push t th (Store_buffer.Sfence k)

let mfence t ~tid =
  let th = thread t tid in
  tick th;
  drain_sb t th;
  let k = { Event.ktid = tid; klclk = th.lclk; kcv = th.cv; kkind = Event.Mfence } in
  drain_flush_buffer t th k;
  t.cfg.observer.Observer.on_fence k

let cas t ~tid ~addr ~size ~expected ~desired ~label =
  let th = thread t tid in
  tick th;
  (* Locked RMW: clears the store buffer and (like mfence) the flush
     buffer before taking effect.  Forced: a locked instruction drains
     even under [Fence_nop], which weakens only explicit fences. *)
  drain_sb t th;
  let k = { Event.ktid = tid; klclk = th.lclk; kcv = th.cv; kkind = Event.Mfence } in
  drain_flush_buffer ~forced:true t th k;
  let observed, source = cache_read t th ~addr ~size ~access:(Access.Atomic Access.Acq_rel) in
  if observed = expected then begin
    tick th;
    let s =
      { Event.seq = -1; tid; lclk = th.lclk; cv = th.cv; addr; size; value = desired;
        access = Access.Atomic Access.Acq_rel; nt = false; label }
    in
    apply_store t s;
    (true, observed, source)
  end
  else (false, observed, source)

(* ------------------------------------------------------------------ *)
(* Crashes                                                             *)

type cut_strategy = Cut_all | Cut_lowerbound | Cut_random of Rng.t

(* [Cut_random] serializes by name only: its Rng is rebuilt from the
   witness seed on decode, which preserves replay determinism because
   the scenario seed fully determined the original draws. *)
let cut_label = function
  | Cut_all -> "cut_all"
  | Cut_lowerbound -> "cut_lowerbound"
  | Cut_random _ -> "cut_random"

let cut_of_label ~seed = function
  | "cut_all" -> Some Cut_all
  | "cut_lowerbound" -> Some Cut_lowerbound
  | "cut_random" -> Some (Cut_random (Rng.create seed))
  | _ -> None

let buffered_stores t =
  Hashtbl.fold
    (fun _ th acc ->
      List.fold_left
        (fun n -> function Store_buffer.Store _ -> n + 1 | Store_buffer.Flush _ | Sfence _ -> n)
        acc (Store_buffer.entries th.sb))
    t.threads 0

(* A line's stores commit in seq order, so its newest-first list is
   seq-descending and the stores above the lower bound are a prefix of
   it.  [Cut_random] draws uniformly from the bound followed by those
   stores' seqs, oldest first. *)
let line_cut ~strategy ~lb newest_first =
  match strategy with
  | Cut_all -> (
      match newest_first with (s : Event.store) :: _ -> max lb s.Event.seq | [] -> lb)
  | Cut_lowerbound -> lb
  | Cut_random rng -> (
      let rec count_later n = function
        | (s : Event.store) :: rest when s.Event.seq > lb -> count_later (n + 1) rest
        | _ -> n
      in
      let later = count_later 0 newest_first in
      match Rng.int rng (later + 1) with
      | 0 -> lb
      | i -> (List.nth newest_first (later - i)).Event.seq)

let rec drain_everything t =
  drain_all_sb t;
  let pending =
    Hashtbl.fold
      (fun _ th acc -> if Flush_buffer.is_empty th.fb then acc else th :: acc)
      t.threads []
  in
  match pending with
  | [] -> ()
  | ths ->
      List.iter
        (fun th ->
          let k =
            { Event.ktid = th.tid; klclk = th.lclk; kcv = th.cv; kkind = Event.Mfence }
          in
          (* Forced: shutdown must terminate even under [Fence_nop]. *)
          drain_flush_buffer ~forced:true t th k)
        ths;
      drain_everything t

let crash ?heap_break t ~strategy =
  let lines = Persistence.lines t.pers in
  Metrics.incr m_crashes;
  Metrics.observe h_crash_lines (List.length lines);
  List.iter Observe.Coverage.line_materialized lines;
  let span_t0 =
    if Observe.Trace.recording () then Some (Observe.Trace.now_us ()) else None
  in
  (* Store-buffer contents are volatile and vanish: do NOT drain. *)
  let snapshot line =
    let lb = Persistence.cut_lb t.pers line in
    let stores = Persistence.line_stores_newest_first t.pers line in
    { Crashstate.line; stores; lb; cut = line_cut ~strategy ~lb stores }
  in
  let lines = Array.of_list (List.map snapshot lines) in
  let keeps_all (l : Crashstate.line) =
    match l.Crashstate.stores with
    | (s : Event.store) :: _ -> s.Event.seq <= l.Crashstate.cut
    | [] -> true
  in
  (* The cache is the inherited image with every committed store
     written in commit order: when the cut keeps them all, it is the
     image.  Otherwise replay the persisted ones onto the inherited
     image, which nothing writes once its state exists. *)
  let all_kept = Array.for_all keeps_all lines in
  let image =
    Memimage.copy (if all_kept then t.cache else t.inherited.Crashstate.image)
  in
  let heap_break =
    match heap_break with Some h -> h | None -> t.inherited.Crashstate.heap_break
  in
  let cs =
    Crashstate.layer ~parent:t.inherited ~exec_id:t.exec_id ~image ~lines
      ~durable_nt:(Persistence.durable_seqs t.pers) ~heap_break
  in
  if not all_kept then
    Persistence.iter_committed t.pers (fun (s : Event.store) ->
        if Crashstate.persisted cs s then
          Memimage.write image ~addr:s.Event.addr ~size:s.Event.size ~value:s.Event.value);
  (match span_t0 with
  | Some ts ->
      Observe.Trace.complete ~cat:"px86"
        ~args:[ ("exec_id", string_of_int t.exec_id) ]
        ~ts_us:ts
        ~dur_us:(Observe.Trace.now_us () - ts)
        "crash_materialize"
  | None -> ());
  cs

let shutdown ?heap_break t =
  drain_everything t;
  List.iter
    (fun line -> Persistence.flush_line t.pers ~line ~seq:t.seq)
    (Persistence.lines t.pers);
  crash ?heap_break t ~strategy:Cut_all
