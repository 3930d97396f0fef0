(* The one domain-sharded store behind every observe accumulator.

   An entry's cells are [Atomic.t]s in one flat array, shard [s] and
   column [c] at [s * width + c].  Nothing here feeds back into the
   systems being measured: the views only ever add to cells, and only
   while their own enable switch is on. *)

let shards = 64 (* power of two; domain ids map to shards by masking *)

let slot () = (Domain.self () :> int) land (shards - 1)

type kind = Counter | Histogram | Center

let count = 0
let sum = 1
let max = 2
let bucket0 = 3
let buckets = 63
let units = 1
let wall = 2

type entry = {
  e_name : string;
  e_kind : kind;
  e_units : string;
  e_volatile : bool;
  e_width : int;
  e_cells : int Atomic.t array;
}

let lock = Mutex.create ()
let table : (string * kind, entry) Hashtbl.t = Hashtbl.create 64

(* Creation is idempotent, so instrumentation sites and tests share
   entries by name alone. *)
let register ?(units = "") ?(volatile_units = false) kind name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table (name, kind) with
      | Some e -> e
      | None ->
          let width =
            match kind with Counter -> 1 | Center -> 3 | Histogram -> bucket0 + buckets
          in
          let e =
            {
              e_name = name;
              e_kind = kind;
              e_units = units;
              e_volatile = volatile_units;
              e_width = width;
              e_cells = Array.init (shards * width) (fun _ -> Atomic.make 0);
            }
          in
          Hashtbl.add table (name, kind) e;
          e)

let name e = e.e_name
let kind e = e.e_kind
let units_label e = e.e_units
let volatile_units e = e.e_volatile

let add_in e ~slot col n =
  ignore (Atomic.fetch_and_add e.e_cells.((slot * e.e_width) + col) n)

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do
      b := !b + 1;
      v := !v lsr 1
    done;
    Stdlib.min !b (buckets - 1)
  end

let sample e v =
  let s = slot () in
  add_in e ~slot:s count 1;
  add_in e ~slot:s sum v;
  add_in e ~slot:s (bucket0 + bucket_of v) 1;
  let m = e.e_cells.((s * e.e_width) + max) in
  let rec bump () =
    let cur = Atomic.get m in
    if v > cur && not (Atomic.compare_and_set m cur v) then bump ()
  in
  bump ()

let read e =
  Array.init e.e_width (fun col ->
      let merge = if e.e_kind = Histogram && col = max then Stdlib.max else ( + ) in
      let acc = ref 0 in
      for s = 0 to shards - 1 do
        acc := merge !acc (Atomic.get e.e_cells.((s * e.e_width) + col))
      done;
      !acc)

let snapshot keep =
  Mutex.protect lock (fun () ->
      Hashtbl.fold
        (fun _ e acc -> if keep e.e_kind then (e, read e) :: acc else acc)
        table [])
  |> List.sort (fun (a, _) (b, _) -> compare (a.e_name, a.e_kind) (b.e_name, b.e_kind))

let diff before after =
  List.filter_map
    (fun (name, cells) ->
      let d =
        match List.assoc_opt name before with
        | None -> cells
        | Some prev -> Array.map2 ( - ) cells prev
      in
      if Array.for_all (( = ) 0) d then None else Some (name, d))
    after

let reset keep =
  Mutex.protect lock (fun () ->
      Hashtbl.iter
        (fun _ e ->
          if keep e.e_kind then Array.iter (fun c -> Atomic.set c 0) e.e_cells)
        table)

let volatile kind ~volatile_units col =
  kind = Center && (col = wall || (col = units && volatile_units))

type 'a shard = { s_lock : Mutex.t; s_value : 'a }
type 'a locked = 'a shard array

let locked make =
  Array.init shards (fun _ -> { s_lock = Mutex.create (); s_value = make () })

(* [Mutex.protect] without its thunk: hooks on the detector's hot path
   pay for their own closure only. *)
let protect s f =
  Mutex.lock s.s_lock;
  match f s.s_value with
  | r ->
      Mutex.unlock s.s_lock;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.unlock s.s_lock;
      Printexc.raise_with_backtrace e bt

let with_local t f = protect t.(slot ()) f
let fold t f init = Array.fold_left (fun acc s -> protect s (f acc)) init t
let iter t f = Array.iter (fun s -> protect s f) t
