(* Hot-spot profiles over recorded span traces.

   [yashme profile trace.json] re-reads a file written by
   [--trace-out] and aggregates its Complete spans into per-name /
   per-category self-time tables plus a per-lane utilization summary.

   Self time is a span's duration minus the durations of its direct
   children, where nesting is interval containment within one
   (pid, tid) lane — exactly how the Chrome viewer draws them.  Both
   export formats of {!Trace.write} are read through
   {!Yashme_util.Json}. *)

(* ------------------------------------------------------------------ *)
(* Events                                                              *)

let field (obj : Yashme_util.Json.t) key =
  match obj with `O kvs -> List.assoc_opt key kvs | _ -> None

let int_field obj key =
  match field obj key with
  | Some (`I i) -> i
  | Some (`F f) -> int_of_float f
  | _ -> 0

let str_field obj key = match field obj key with Some (`S s) -> s | _ -> ""

(* One trace event object; [None] for phases this profiler does not
   aggregate (forward compatibility, not an error). *)
let event_of_json obj =
  let event ph dur_us =
    Some
      {
        Trace.name = str_field obj "name";
        cat = str_field obj "cat";
        ph;
        ts_us = int_field obj "ts";
        dur_us;
        pid = int_field obj "pid";
        tid = int_field obj "tid";
        args = [];
      }
  in
  match field obj "ph" with
  | Some (`S "X") -> event Trace.Complete (int_field obj "dur")
  | Some (`S "i") -> event Trace.Instant 0
  | _ -> None

let parse_file path =
  let data = In_channel.with_open_bin path In_channel.input_all in
  if Filename.check_suffix path ".jsonl" then
    Result.map (List.filter_map Fun.id)
      (Yashme_util.Json.of_jsonl (fun obj -> Ok (event_of_json obj)) data)
  else
    match Yashme_util.Json.parse data with
    | Error e -> Error e
    | Ok doc -> (
        match field doc "traceEvents" with
        | Some (`A evs) -> Ok (List.filter_map event_of_json evs)
        | Some _ -> Error "offset 0: \"traceEvents\" is not an array"
        | None -> Error "offset 0: not a Chrome trace (no \"traceEvents\" member)")

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)

type row = { r_key : string; r_count : int; r_total_us : int; r_self_us : int }

type lane = {
  l_pid : int;
  l_tid : int;
  l_spans : int;
  l_instants : int;
  l_busy_us : int;  (* summed duration of top-level spans *)
}

(* Parents-first ordering within a lane: ascending start, longer spans
   first on ties (same rule {!Trace.events} exports with). *)
let lane_sort evs =
  List.stable_sort
    (fun (a : Trace.event) (b : Trace.event) ->
      match compare a.Trace.ts_us b.Trace.ts_us with
      | 0 -> compare b.Trace.dur_us a.Trace.dur_us
      | c -> c)
    evs

let group_lanes events =
  let tbl : (int * int, Trace.event list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      let k = (e.Trace.pid, e.Trace.tid) in
      Hashtbl.replace tbl k (e :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    events;
  Hashtbl.fold (fun k evs acc -> (k, List.rev evs) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Stack scan of one lane's spans: a span whose interval is contained
   in the stack top is its child; its duration is charged to the
   parent's child-time, making parent self = dur - children.  Calls
   [f ev ~self_us ~top_level] for every Complete span. *)
let scan_lane evs f =
  let spans =
    lane_sort (List.filter (fun (e : Trace.event) -> e.Trace.ph = Trace.Complete) evs)
  in
  (* stack entries: (end_ts, child duration accumulator, event) *)
  let stack = ref [] in
  let pop (_, children, (ev : Trace.event)) =
    f ev ~self_us:(max 0 (ev.Trace.dur_us - !children))
      ~top_level:(!stack = [])
  in
  let rec unwind ts =
    match !stack with
    | (end_ts, _, _) :: rest when end_ts <= ts ->
        let top = List.hd !stack in
        stack := rest;
        pop top;
        unwind ts
    | _ -> ()
  in
  List.iter
    (fun (e : Trace.event) ->
      unwind e.Trace.ts_us;
      (match !stack with
      | (_, children, _) :: _ -> children := !children + e.Trace.dur_us
      | [] -> ());
      stack := (e.Trace.ts_us + e.Trace.dur_us, ref 0, e) :: !stack)
    spans;
  unwind max_int

let aggregate ~key events =
  let tbl : (string, int * int * int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (_, evs) ->
      scan_lane evs (fun ev ~self_us ~top_level:_ ->
          let k = key ev in
          let count, total, self =
            Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl k)
          in
          Hashtbl.replace tbl k
            (count + 1, total + ev.Trace.dur_us, self + self_us)))
    (group_lanes events);
  Hashtbl.fold
    (fun k (count, total, self) acc ->
      { r_key = k; r_count = count; r_total_us = total; r_self_us = self } :: acc)
    tbl []
  |> List.sort (fun a b ->
         match compare b.r_self_us a.r_self_us with
         | 0 -> compare a.r_key b.r_key
         | c -> c)

let by_name events = aggregate ~key:(fun (e : Trace.event) -> e.Trace.name) events

let by_cat events =
  aggregate
    ~key:(fun (e : Trace.event) ->
      if e.Trace.cat = "" then "(uncategorized)" else e.Trace.cat)
    events

let lanes events =
  List.map
    (fun ((pid, tid), evs) ->
      let spans = ref 0 and instants = ref 0 and busy = ref 0 in
      List.iter
        (fun (e : Trace.event) ->
          match e.Trace.ph with
          | Trace.Instant -> incr instants
          | Trace.Complete -> incr spans)
        evs;
      scan_lane evs (fun ev ~self_us:_ ~top_level ->
          if top_level then busy := !busy + ev.Trace.dur_us);
      { l_pid = pid; l_tid = tid; l_spans = !spans; l_instants = !instants;
        l_busy_us = !busy })
    (group_lanes events)
