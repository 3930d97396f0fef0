(* Per-scenario cost attribution: where does exploration time go?

   A [center] (snapshot copying, queue wait, detector clock-vector
   comparisons, ...) is a {!Registry} [Center] entry: occurrence count,
   charged units (whatever the center's [units] label says) and wall
   microseconds.  The two-class column model of the interface — which
   columns are jobs-invariant and which volatile — is
   {!Registry.volatile}'s rule alone; rendering and export ask it. *)

let enabled = Atomic.make false
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

type center = Registry.entry

(* Find-or-create, like {!Metrics.counter}: one name, one set of cells,
   so instrumentation sites and tests share centers by name alone.
   The first registration fixes the units label. *)
let center ?units ?volatile_units name =
  Registry.register ?units ?volatile_units Registry.Center name

let charge c ~count ~units ~wall_us =
  if Atomic.get enabled then begin
    let slot = Registry.slot () in
    if count <> 0 then Registry.add_in c ~slot Registry.count count;
    if units <> 0 then Registry.add_in c ~slot Registry.units units;
    if wall_us > 0 then Registry.add_in c ~slot Registry.wall wall_us
  end

let tick c =
  if Atomic.get enabled then
    Registry.add_in c ~slot:(Registry.slot ()) Registry.count 1

(* ------------------------------------------------------------------ *)
(* Merge-on-read rows                                                   *)

type row = {
  r_center : string;
  r_units_label : string;
  r_volatile_units : bool;
  r_count : int;
  r_units : int;
  r_wall_us : int;
}

let is_center kind = kind = Registry.Center

(* Registered-but-uncharged centers are dropped so the table only names
   cost centers the run actually exercised, whichever modules happened
   to register centers. *)
let snapshot () =
  List.filter_map
    (fun (e, c) ->
      if Array.for_all (( = ) 0) c then None
      else
        Some
          {
            r_center = Registry.name e;
            r_units_label = Registry.units_label e;
            r_volatile_units = Registry.volatile_units e;
            r_count = c.(Registry.count);
            r_units = c.(Registry.units);
            r_wall_us = c.(Registry.wall);
          })
    (Registry.snapshot is_center)

let diff before after =
  let cells =
    List.map (fun r -> (r.r_center, [| r.r_count; r.r_units; r.r_wall_us |]))
  in
  List.map
    (fun (name, c) ->
      {
        (List.find (fun r -> r.r_center = name) after) with
        r_count = c.(Registry.count);
        r_units = c.(Registry.units);
        r_wall_us = c.(Registry.wall);
      })
    (Registry.diff (cells before) (cells after))

let reset () = Registry.reset is_center

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)

(* Whether a column renders: with [timing] every column does, without
   it only those the registry's projection rule calls invariant. *)
let shown ~timing ~volatile_units col =
  timing || not (Registry.volatile Registry.Center ~volatile_units col)

let charged_cell ~timing r =
  if r.r_units_label = "" then "-"
  else if not (shown ~timing ~volatile_units:r.r_volatile_units Registry.units)
  then "-"
  else Printf.sprintf "%d %s" r.r_units r.r_units_label

let wall_cell r = Printf.sprintf "%.3fms" (float_of_int r.r_wall_us /. 1000.)

(* [timing:false] is the jobs-invariant projection: the wall column is
   dropped and volatile charged units render as "-". *)
let pp ?(timing = true) ppf rows =
  let wall = shown ~timing ~volatile_units:false Registry.wall in
  let cells =
    List.map
      (fun r ->
        let base =
          [ r.r_center; string_of_int r.r_count; charged_cell ~timing r ]
        in
        if wall then base @ [ wall_cell r ] else base)
      rows
  in
  let header =
    if wall then [ "cost center"; "count"; "charged"; "wall" ]
    else [ "cost center"; "count"; "charged" ]
  in
  Format.fprintf ppf "@[<v>[attribution]";
  if rows = [] then Format.fprintf ppf "@,  (no cost recorded)"
  else begin
    List.iter
      (Format.fprintf ppf "@,  %s")
      (Yashme_util.Pretty.columns (header :: cells))
  end;
  Format.fprintf ppf "@]"

let to_string ?timing rows = Format.asprintf "%a" (pp ?timing) rows

(* One flat JSONL object per center — only the invariant projection, so
   an --attribution-out file is byte-identical for every --jobs count. *)
let fields r : (string * Yashme_util.Json.value) list =
  [
    ("center", `S r.r_center);
    ("count", `I r.r_count);
    ( "units",
      if shown ~timing:false ~volatile_units:r.r_volatile_units Registry.units
      then `I r.r_units
      else `Null );
    ("units_label", `S r.r_units_label);
  ]

(* Inverse of [fields], for re-rendering an --attribution-out file
   (yashme profile --attribution).  Wall clocks are not serialized, so
   the reconstructed row carries none. *)
let of_fields (fs : (string * Yashme_util.Json.value) list) =
  let str k =
    match List.assoc_opt k fs with Some (`S s) -> Some s | _ -> None
  in
  match (str "center", List.assoc_opt "count" fs) with
  | Some center, Some (`I count) ->
      let units, volatile =
        match List.assoc_opt "units" fs with
        | Some (`I u) -> (u, false)
        | Some `Null -> (0, true)
        | _ -> (0, false)
      in
      Ok
        {
          r_center = center;
          r_units_label = Option.value ~default:"" (str "units_label");
          r_volatile_units = volatile;
          r_count = count;
          r_units = units;
          r_wall_us = 0;
        }
  | _ -> Error "not an attribution row (missing \"center\"/\"count\")"
