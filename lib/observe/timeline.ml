(* Per-domain execution timelines, reconstructed from recorded traces.

   The engine's trace gives every worker domain a lane (pid 0, tid =
   worker slot) holding one [worker] span per pool lifetime and one
   [scenario] span per unit of claimed work.  This module folds those
   spans back into a lane chart: for each lane, maximal segments of

   - {b busy} time — covered by a work span (category ["scenario"] by
     default; top-level spans when a lane has none),
   - {b queue-wait} time — inside an alive span (name ["worker"] by
     default; the lane's own extent when it has none) but outside any
     work span: the domain existed and was polling the queue, and
   - {b idle} time — inside the batch window but outside the lane's
     alive cover: the domain had not started or had already finished.

   Everything here is wall-clock class: lane charts differ run to run
   and across --jobs counts by construction, so nothing below feeds
   the deterministic report path.  The [t_critical_path_us] figure is
   the largest per-lane busy total — a lower bound on the makespan any
   schedule could reach with this work partition.

   Lanes are grouped by {!Profile.group_lanes}, the grouping the
   hot-spot tables use, and rendered as an ASCII lane chart and a
   per-lane table.  A graphical view of the same lanes is the Chrome
   trace ([--trace-out]) itself. *)

type kind = Busy | Wait | Idle

type segment = { g_start_us : int; g_end_us : int; g_kind : kind }

type lane = {
  tl_pid : int;
  tl_tid : int;
  tl_segments : segment list;  (* sorted, contiguous over the window *)
  tl_spans : int;  (* work spans folded into the busy cover *)
  tl_busy_us : int;
  tl_wait_us : int;
  tl_idle_us : int;
  tl_last_us : int;  (* last busy microsecond (window start if none) *)
  tl_utilization : float;  (* busy / window *)
  tl_gaps : int list;  (* non-busy gap lengths between busy segments *)
}

type t = {
  t_start_us : int;
  t_makespan_us : int;
  t_lanes : lane list;  (* sorted by (pid, tid) *)
  t_critical_path_us : int;
  t_utilization : float;  (* busy / (lanes * makespan) *)
  t_straggler : (int * int) option;  (* lane whose busy cover ends last *)
  t_straggler_tail_us : int;  (* its lead over the next-latest lane *)
}

(* ------------------------------------------------------------------ *)
(* Interval algebra: sorted, disjoint, non-empty [(start, end)] lists   *)

let interval_union ivs =
  let sorted = List.sort compare (List.filter (fun (a, b) -> b > a) ivs) in
  let rec merge acc = function
    | [] -> List.rev acc
    | iv :: rest -> (
        match acc with
        | (a, b) :: tl when fst iv <= b ->
            merge ((a, max b (snd iv)) :: tl) rest
        | _ -> merge (iv :: acc) rest)
  in
  merge [] sorted

(* [a] minus [b]; both unions as produced by {!interval_union}. *)
let interval_sub a b =
  List.concat_map
    (fun (lo, hi) ->
      let rec cut lo acc = function
        | [] -> if hi > lo then (lo, hi) :: acc else acc
        | (blo, bhi) :: rest ->
            if bhi <= lo then cut lo acc rest
            else if blo >= hi then if hi > lo then (lo, hi) :: acc else acc
            else
              let acc = if blo > lo then (lo, blo) :: acc else acc in
              if bhi < hi then cut bhi acc rest else acc
      in
      List.rev (cut lo [] b))
    a

let interval_total ivs = List.fold_left (fun s (a, b) -> s + (b - a)) 0 ivs

(* ------------------------------------------------------------------ *)
(* Reconstruction                                                       *)

let span_interval (e : Trace.event) = (e.Trace.ts_us, e.Trace.ts_us + e.Trace.dur_us)

(* Spans not contained in any other span of the lane — the fallback
   work cover for traces that never tagged a work category. *)
let top_level spans =
  List.filter
    (fun (e : Trace.event) ->
      let s, f = span_interval e in
      not
        (List.exists
           (fun (o : Trace.event) ->
             let os, odf = span_interval o in
             o != e && os <= s && f <= odf && (os < s || f < odf))
           spans))
    spans

let of_events ?(work_cat = "scenario") ?(alive_name = "worker") events =
  let spans =
    List.filter (fun (e : Trace.event) -> e.Trace.ph = Trace.Complete) events
  in
  match spans with
  | [] -> Error "empty trace: no complete spans to reconstruct lanes from"
  | _ ->
      let window_start =
        List.fold_left (fun m e -> min m (fst (span_interval e))) max_int spans
      in
      let window_end =
        List.fold_left (fun m e -> max m (snd (span_interval e))) min_int spans
      in
      let makespan = max 0 (window_end - window_start) in
      let lane_of (pid, tid) lane_spans =
        let work =
          match
            List.filter (fun (e : Trace.event) -> e.Trace.cat = work_cat) lane_spans
          with
          | [] -> top_level lane_spans
          | ws -> ws
        in
        let busy = interval_union (List.map span_interval work) in
        let alive_spans =
          List.filter (fun (e : Trace.event) -> e.Trace.name = alive_name) lane_spans
        in
        let alive =
          match alive_spans with
          | [] ->
              (* No alive marker: the lane's own extent is its cover. *)
              interval_union (List.map span_interval lane_spans)
          | _ -> interval_union (List.map span_interval alive_spans)
        in
        (* The busy cover may leak past a 0-length alive cover; keep the
           classification total by folding busy into alive. *)
        let alive = interval_union (alive @ busy) in
        let wait = interval_sub alive busy in
        let idle = interval_sub [ (window_start, window_end) ] alive in
        let segments =
          List.sort compare
            (List.map (fun (a, b) -> { g_start_us = a; g_end_us = b; g_kind = Busy }) busy
            @ List.map (fun (a, b) -> { g_start_us = a; g_end_us = b; g_kind = Wait }) wait
            @ List.map (fun (a, b) -> { g_start_us = a; g_end_us = b; g_kind = Idle }) idle)
        in
        let busy_us = interval_total busy in
        let last_us =
          match List.rev busy with (_, b) :: _ -> b | [] -> window_start
        in
        (* Gaps between consecutive busy segments: the idle-gap
           histogram's raw material (queue polls, stragglers' tails are
           measured globally instead). *)
        let gaps =
          let rec walk = function
            | (_, b) :: ((a, _) :: _ as rest) -> (a - b) :: walk rest
            | _ -> []
          in
          List.filter (fun g -> g > 0) (walk busy)
        in
        {
          tl_pid = pid;
          tl_tid = tid;
          tl_segments = segments;
          tl_spans = List.length work;
          tl_busy_us = busy_us;
          tl_wait_us = interval_total wait;
          tl_idle_us = interval_total idle;
          tl_last_us = last_us;
          tl_utilization =
            (if makespan > 0 then float_of_int busy_us /. float_of_int makespan
             else 0.);
          tl_gaps = gaps;
        }
      in
      (* Input order within a lane is irrelevant (events may arrive out
         of order): every computation above is over interval unions. *)
      let lanes =
        List.map (fun (key, evs) -> lane_of key evs) (Profile.group_lanes spans)
      in
      let busy_total = List.fold_left (fun s l -> s + l.tl_busy_us) 0 lanes in
      let critical = List.fold_left (fun m l -> max m l.tl_busy_us) 0 lanes in
      let straggler, tail =
        match
          List.sort
            (fun a b -> compare (b.tl_last_us, b.tl_pid, b.tl_tid) (a.tl_last_us, a.tl_pid, a.tl_tid))
            lanes
        with
        | last :: next :: _ ->
            (Some (last.tl_pid, last.tl_tid), last.tl_last_us - next.tl_last_us)
        | [ only ] -> (Some (only.tl_pid, only.tl_tid), 0)
        | [] -> (None, 0)
      in
      Ok
        {
          t_start_us = window_start;
          t_makespan_us = makespan;
          t_lanes = lanes;
          t_critical_path_us = critical;
          t_utilization =
            (let cap = makespan * List.length lanes in
             if cap > 0 then float_of_int busy_total /. float_of_int cap else 0.);
          t_straggler = straggler;
          t_straggler_tail_us = tail;
        }

(* ------------------------------------------------------------------ *)
(* Idle-gap histogram                                                   *)

(* Power-of-two buckets: (upper bound in us, count), ascending, only
   non-empty buckets.  The bucket of gap [g] is the smallest power of
   two >= g. *)
let gap_histogram lane =
  let bucket g =
    let rec up b = if b >= g then b else up (b * 2) in
    up 1
  in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun g ->
      let b = bucket g in
      Hashtbl.replace tbl b (1 + Option.value ~default:0 (Hashtbl.find_opt tbl b)))
    lane.tl_gaps;
  Hashtbl.fold (fun b n acc -> (b, n) :: acc) tbl [] |> List.sort compare

let histogram_label lane =
  match gap_histogram lane with
  | [] -> "-"
  | buckets ->
      String.concat ","
        (List.map
           (fun (b, n) ->
             if b >= 1000 then Printf.sprintf "<=%dms:%d" (b / 1000) n
             else Printf.sprintf "<=%dus:%d" b n)
           buckets)

let max_gap_us lane = List.fold_left max 0 lane.tl_gaps

(* ------------------------------------------------------------------ *)
(* ASCII lane chart                                                     *)

let ascii ?(width = 64) t =
  let width = max 8 width in
  let buf = Buffer.create 1024 in
  let span = max 1 t.t_makespan_us in
  let label_w =
    List.fold_left
      (fun w l -> max w (String.length (Printf.sprintf "%d/%d" l.tl_pid l.tl_tid)))
      4 t.t_lanes
  in
  List.iter
    (fun l ->
      (* One cell per time bucket; busy wins over wait wins over idle,
         so short scenarios remain visible at coarse resolution. *)
      let cells = Bytes.make width ' ' in
      List.iter
        (fun g ->
          let clamp v = max 0 (min (width - 1) v) in
          let c0 = clamp ((g.g_start_us - t.t_start_us) * width / span) in
          let c1 = clamp ((g.g_end_us - 1 - t.t_start_us) * width / span) in
          let ch = match g.g_kind with Busy -> '#' | Wait -> '.' | Idle -> ' ' in
          for i = c0 to c1 do
            let prev = Bytes.get cells i in
            let keep =
              match (prev, ch) with
              | '#', _ -> true
              | '.', ' ' -> true
              | _ -> false
            in
            if not keep then Bytes.set cells i ch
          done)
        l.tl_segments;
      Buffer.add_string buf
        (Printf.sprintf "%-*s |%s| %3.0f%% busy\n" label_w
           (Printf.sprintf "%d/%d" l.tl_pid l.tl_tid)
           (Bytes.to_string cells)
           (100. *. l.tl_utilization)))
    t.t_lanes;
  Buffer.add_string buf
    (Printf.sprintf "%-*s  %s\n" label_w ""
       (Printf.sprintf "# busy  . queue-wait  (makespan %.3fms, pool utilization %.0f%%)"
          (float_of_int t.t_makespan_us /. 1000.)
          (100. *. t.t_utilization)));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Table                                                                *)

let fmt_ms us = Printf.sprintf "%.3fms" (float_of_int us /. 1000.)

let pp ppf t =
  Format.fprintf ppf "@[<v>[timeline]";
  Format.fprintf ppf "@,  makespan %s, %d lane(s), critical path %s, pool utilization %.0f%%"
    (fmt_ms t.t_makespan_us) (List.length t.t_lanes)
    (fmt_ms t.t_critical_path_us)
    (100. *. t.t_utilization);
  (match t.t_straggler with
  | Some (pid, tid) when List.length t.t_lanes > 1 ->
      Format.fprintf ppf "@,  straggler lane %d/%d finishes %s after the rest"
        pid tid (fmt_ms t.t_straggler_tail_us)
  | _ -> ());
  let header = [ "pid"; "tid"; "spans"; "busy"; "wait"; "idle"; "util"; "max-gap"; "gaps" ] in
  let rows =
    List.map
      (fun l ->
        [
          string_of_int l.tl_pid;
          string_of_int l.tl_tid;
          string_of_int l.tl_spans;
          fmt_ms l.tl_busy_us;
          fmt_ms l.tl_wait_us;
          fmt_ms l.tl_idle_us;
          Printf.sprintf "%.0f%%" (100. *. l.tl_utilization);
          fmt_ms (max_gap_us l);
          histogram_label l;
        ])
      t.t_lanes
  in
  List.iter
    (Format.fprintf ppf "@,  %s")
    (Yashme_util.Pretty.columns (header :: rows));
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t
