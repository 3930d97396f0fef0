type origin = { store : Event.store; exec_id : int }

type line = {
  line : int;
  stores : Event.store list;  (* committed to the line, newest first *)
  lb : int;
  cut : int;
}

type t = {
  exec_id : int;
  parent : t option;
  depth : int;
  image : Memimage.t;
  lines : line array;
  durable_nt : int array;
  heap_break : int;
}

let boot () =
  {
    exec_id = -1;
    parent = None;
    depth = 0;
    image = Memimage.create ();
    lines = [||];
    durable_nt = [||];
    heap_break = Addr.line_size (* keep line 0 for runtime metadata *);
  }

let layer ~parent ~exec_id ~image ~lines ~durable_nt ~heap_break =
  { exec_id; parent = Some parent; depth = parent.depth + 1; image; lines; durable_nt;
    heap_break }

let ct_copy = Observe.Attribution.center ~units:"bytes" "px86/snapshot_copy"
let m_copies = Observe.Metrics.counter "px86/snapshot_copies"
let m_bytes = Observe.Metrics.counter "px86/snapshot_bytes"

(* The image is the only thing a copy duplicates: everything else in a
   state is immutable and shared. *)
let copy_cost t = Memimage.footprint t.image

let hydrate t =
  let observing =
    Observe.Attribution.is_enabled () || Observe.Metrics.is_enabled ()
  in
  let t0 = if observing then Observe.Trace.now_us () else 0 in
  let image = Memimage.copy t.image in
  if observing then begin
    let bytes = copy_cost t in
    Observe.Metrics.incr m_copies;
    Observe.Metrics.add m_bytes bytes;
    Observe.Attribution.charge ct_copy ~count:1 ~units:bytes
      ~wall_us:(Observe.Trace.now_us () - t0)
  end;
  image

let copy t = { t with image = hydrate t }

(* ------------------------------------------------------------------ *)
(* Layer lookups                                                       *)

(* The lookups below are top-level loops over immutable data, so that a
   post-crash load allocates only its result. *)

let no_line = { line = -1; stores = []; lb = 0; cut = -1 }

let rec search_line (lines : line array) l lo hi =
  if lo >= hi then no_line
  else
    let mid = (lo + hi) lsr 1 in
    let x = lines.(mid) in
    if x.line = l then x
    else if x.line < l then search_line lines l (mid + 1) hi
    else search_line lines l lo mid

let find_line t l = search_line t.lines l 0 (Array.length t.lines)

let rec search_seq (a : int array) seq lo hi =
  lo < hi
  &&
  let mid = (lo + hi) lsr 1 in
  let x = a.(mid) in
  x = seq || if x < seq then search_seq a seq (mid + 1) hi else search_seq a seq lo mid

let is_durable_nt t (s : Event.store) =
  search_seq t.durable_nt s.Event.seq 0 (Array.length t.durable_nt)

(* A store persists with the cut of the line of its first byte, or on
   its own once durable as a non-temporal store. *)
let persisted t (s : Event.store) =
  s.Event.seq <= (find_line t (Addr.line s.Event.addr)).cut || is_durable_nt t s

(* Sentinel for "no store", so that the walks below return without
   allocating an option. *)
let no_store =
  { Event.seq = -1; tid = -1; lclk = 0; cv = Yashme_util.Clockvec.empty; addr = 0;
    size = 1; value = 0L; access = Access.Plain; nt = false; label = None }

let rec newest_persisted_in t b = function
  | [] -> no_store
  | (s : Event.store) :: rest ->
      if s.Event.addr <= b && b < s.Event.addr + s.Event.size && persisted t s then s
      else newest_persisted_in t b rest

(* The store that last wrote byte [b] in layer [t]'s own crash: the
   newest persisted store over [b] (the line list is newest first). *)
let layer_byte t b = newest_persisted_in t b (find_line t (Addr.line b)).stores

(* Origins order by chain position first: every execution numbers its
   commits from 0, so a seq means nothing across layers. *)
let newer (la : t) (a : Event.store) (lb : t) (b : Event.store) =
  la.depth > lb.depth || (la.depth = lb.depth && a.Event.seq > b.Event.seq)

(* Byte [addr + i]'s origin is found in the newest layer whose crash
   persisted a store over it ([l] walks the chain from [t]); the load's
   origin is the newest of its bytes' origins. *)
let rec scan_origin t addr size i best_l best torn =
  if i >= size then
    if best == no_store then None else Some ({ store = best; exec_id = best_l.exec_id }, torn)
  else layer_origin t t addr size i best_l best torn

and layer_origin t l addr size i best_l best torn =
  let s = layer_byte l (addr + i) in
  if s != no_store then
    let torn = torn || (best != no_store && best != s) in
    if best == no_store || newer l s best_l best then
      scan_origin t addr size (i + 1) l s torn
    else scan_origin t addr size (i + 1) best_l best torn
  else
    match l.parent with
    | Some p -> layer_origin t p addr size i best_l best torn
    | None -> scan_origin t addr size (i + 1) best_l best torn

let find_origin t ~addr ~size = scan_origin t addr size 0 t no_store false

let rec has_exact addr size = function
  | [] -> false
  | (s : Event.store) :: rest ->
      (s.Event.addr = addr && s.Event.size = size) || has_exact addr size rest

(* The layer's own candidates for [[addr, addr+size)], oldest first,
   and whether they start at a durable base: a covering store at or
   below the line's flush lower bound, or individually durable.  The
   same split as {!Persistence.candidates}, over the snapshot. *)
let rec split_candidates t addr size lb acc = function
  | [] -> (acc, false)
  | (s : Event.store) :: rest ->
      if not (Event.store_covers s addr size) then split_candidates t addr size lb acc rest
      else
        let acc = { store = s; exec_id = t.exec_id } :: acc in
        if s.Event.seq <= lb || is_durable_nt t s then (acc, true)
        else split_candidates t addr size lb acc rest

let rec byte_origin t b =
  let s = layer_byte t b in
  if s != no_store then Some (t, s)
  else match t.parent with Some p -> byte_origin p b | None -> None

(* Distinct byte origins, oldest first. *)
let byte_candidates t ~addr ~size =
  let acc = ref [] in
  for i = 0 to size - 1 do
    match byte_origin t (addr + i) with
    | None -> ()
    | Some (l, s) ->
        if not (List.exists (fun (_, s') -> s' == s) !acc) then acc := (l, s) :: !acc
  done;
  List.sort
    (fun ((la : t), (a : Event.store)) (lb, b) ->
      compare (la.depth, a.Event.seq) (lb.depth, b.Event.seq))
    !acc
  |> List.map (fun ((l : t), s) -> { store = s; exec_id = l.exec_id })

(* The newest layer that committed a store of exactly [(addr, size)]
   answers with its own candidates, from the newest durable base up, or
   preceded by its parent's when they have none; with no such layer, the
   byte origins answer. *)
let rec find_candidates_from top t ~addr ~size =
  let line = find_line t (Addr.line addr) in
  if has_exact addr size line.stores then
    let this_exec, based = split_candidates t addr size line.lb [] line.stores in
    match t.parent with
    | Some p when not based -> find_candidates_from p p ~addr ~size @ this_exec
    | Some _ | None -> this_exec
  else
    match t.parent with
    | Some p -> find_candidates_from top p ~addr ~size
    | None -> byte_candidates top ~addr ~size

let find_candidates t ~addr ~size = find_candidates_from t t ~addr ~size
