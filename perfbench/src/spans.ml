(* In-memory span recorder for the traced run, plus the self-time
   arithmetic over recorded spans.

   Spans are recorded by the benchmark's own code around each call it
   makes into a layer's public functions; nothing inside the program
   under test is instrumented.  Only the domain that created the
   recorder records (the benchmark calls every layer from its main
   domain; engine workers never see the recorder).  Spans stay in
   memory and are written once, when the benchmark ends. *)

type span = {
  id : int;
  parent : int option;  (** innermost enclosing span when it opened *)
  trace : int;  (** pass the span belongs to; spans of one pass share it *)
  layer : string;
  name : string;
  t0 : float;
  t1 : float;
}

type t = {
  mutable enabled : bool;
  mutable trace_id : int;
  mutable rev : span list;
  mutable stack : int list;
  mutable next : int;
  owner : Domain.id;
}

let create () =
  { enabled = false; trace_id = 0; rev = []; stack = []; next = 0; owner = Domain.self () }

let set_enabled t b = t.enabled <- b
let set_trace t id = t.trace_id <- id

let with_span t ~layer ~name f =
  if (not t.enabled) || Domain.self () <> t.owner then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with [] -> None | p :: _ -> Some p in
    let trace = t.trace_id in
    t.stack <- id :: t.stack;
    let t0 = Clock.now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.now () in
        t.stack <- List.tl t.stack;
        t.rev <- { id; parent; trace; layer; name; t0; t1 } :: t.rev)
      f
  end

(* Spans in the order they closed. *)
let spans t = List.rev t.rev

(* ------------------------------------------------------------------ *)
(* Interval arithmetic                                                  *)

let duration s = Float.max 0. (s.t1 -. s.t0)

(* Total length covered by a set of intervals: overlaps count once,
   empty and inverted intervals count zero. *)
let union_length intervals =
  let ivs =
    List.sort compare (List.filter (fun (a, b) -> b > a) intervals)
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) ->
            if a <= cb then go acc (Some (ca, Float.max cb b)) rest
            else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None ivs

let clip ~lo ~hi (a, b) = (Float.max lo a, Float.min hi b)

(* Self time of every span: its duration minus the part of its interval
   its direct children cover.  Children that overlap each other (or run
   past the parent's end) are charged once, within the parent. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.add children p (s.t0, s.t1)
      | None -> ())
    spans;
  List.map
    (fun s ->
      let covered =
        union_length
          (List.map (clip ~lo:s.t0 ~hi:s.t1) (Hashtbl.find_all children s.id))
      in
      (s, Float.max 0. (duration s -. covered)))
    spans

(* Self time summed per layer, in first-seen layer order. *)
let layer_self spans =
  let order = ref [] and tbl = Hashtbl.create 8 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.layer with
      | Some v -> Hashtbl.replace tbl s.layer (v +. self)
      | None ->
          order := s.layer :: !order;
          Hashtbl.add tbl s.layer self)
    (self_times spans);
  List.rev_map (fun l -> (l, Hashtbl.find tbl l)) !order

(* Part of the window [t0, t1] that no span covers: time the benchmark
   spent outside every layer call.  Reported as unattributed rather
   than charged to the nearest layer. *)
let uncovered ~t0 ~t1 spans =
  Float.max 0.
    (t1 -. t0
    -. union_length (List.map (fun s -> clip ~lo:t0 ~hi:t1 (s.t0, s.t1)) spans))

let of_trace id spans = List.filter (fun s -> s.trace = id) spans

(* One JSON object per span, start times relative to [origin]. *)
let to_jsonl ~origin spans =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      Printf.bprintf buf
        "{\"id\":%d,\"parent\":%s,\"trace\":%d,\"layer\":%S,\"name\":%S,\"start_us\":%.3f,\"dur_us\":%.3f}\n"
        s.id
        (match s.parent with Some p -> string_of_int p | None -> "null")
        s.trace s.layer s.name
        ((s.t0 -. origin) *. 1e6)
        (duration s *. 1e6))
    spans;
  Buffer.contents buf
