(* Domain-safe counters and histograms: a view over the {!Registry}'s
   [Counter] and [Histogram] entries.

   Everything is a no-op behind a single [Atomic.get] branch until
   [enable] is called, and nothing here feeds back into the systems
   being measured: instrumented code behaves identically with metrics
   on or off. *)

let enabled = Atomic.make false
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

type counter = Registry.entry
type histogram = Registry.entry
type hstats = { count : int; sum : int; max : int }

let counter name = Registry.register Registry.Counter name
let histogram name = Registry.register Registry.Histogram name
let counter_name = Registry.name

let add c n =
  if Atomic.get enabled then Registry.add_in c ~slot:(Registry.slot ()) Registry.count n
let incr c = add c 1
let value c = (Registry.read c).(Registry.count)
let observe h v = if Atomic.get enabled then Registry.sample h v

let hstats h =
  let v = Registry.read h in
  { count = v.(Registry.count); sum = v.(Registry.sum); max = v.(Registry.max) }

let bucket_counts h = Array.sub (Registry.read h) Registry.bucket0 Registry.buckets

let mine kind = kind <> Registry.Center

(* Counters by name, plus #count / #sum / #max pseudo-counters per
   histogram, sorted by name so two snapshots of identical work compare
   equal structurally. *)
let snapshot () =
  List.concat_map
    (fun (e, cells) ->
      let name = Registry.name e in
      match Registry.kind e with
      | Registry.Histogram ->
          [
            (name ^ "#count", cells.(Registry.count));
            (name ^ "#sum", cells.(Registry.sum));
            (name ^ "#max", cells.(Registry.max));
          ]
      | Registry.Counter | Registry.Center -> [ (name, cells.(Registry.count)) ])
    (Registry.snapshot mine)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* A running maximum has no window difference (after-max minus
   before-max is not the window's maximum), so a diff drops every
   [#max] row; whole-run output reads {!snapshot}, whose [#max] is the
   true maximum. *)
let diff before after =
  let cells =
    List.filter_map (fun (name, v) ->
        if String.ends_with ~suffix:"#max" name then None else Some (name, [| v |]))
  in
  List.map
    (fun (name, c) -> (name, c.(Registry.count)))
    (Registry.diff (cells before) (cells after))

let reset () = Registry.reset mine
