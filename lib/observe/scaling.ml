(* Jobs-sweep analysis: where does parallel wall-clock go?

   The driver runs the same program at several --jobs levels and hands
   this module one {!Ledger.entry} per job count.  The analysis derives
   speedup and parallel efficiency against the lowest-jobs reference
   level, fits an Amdahl serial fraction across the multi-domain
   levels, and sets the lost domain-seconds of each level against the
   named cost centers the engine already attributes: queue-wait,
   snapshot copying, result merge, and the (volatile) GC word deltas.

   The column model follows {!Attribution}'s two classes.  A level's
   scenario/execution/op/race/witness counts and snapshot bytes are
   deterministic work — identical for every --jobs count — so the
   [fields ~timing:false] projection of a sweep is byte-stable and CI
   cmp-able, and {!check} enforces that invariance across the sweep's
   own levels.  Wall clocks, speedup, efficiency, serial fraction and
   GC word deltas (the entry's [e_cost] wall and [gc/*] columns) are
   scheduling-dependent and render only in the full
   ([~timing:true]) rows. *)

(* A level is the run's ledger entry; the cost-center columns the
   analysis needs are read from its [e_cost] (absent centers read as
   zero). *)
let cost_column name column (e : Ledger.entry) =
  match List.find_opt (fun c -> c.Ledger.c_center = name) e.Ledger.e_cost with
  | Some c -> column c
  | None -> 0

let units name = cost_column name (fun c -> c.Ledger.c_units)
let wall_us name = cost_column name (fun c -> c.Ledger.c_wall_us)
let seconds us = float_of_int us /. 1_000_000.
let jobs (e : Ledger.entry) = e.Ledger.e_jobs
let elapsed (e : Ledger.entry) = e.Ledger.e_elapsed_s

(* Interleaved best-of-N: a fixed jobs=1-first order would hand every
   later level a warmed allocator and memoized setup, so each pass
   visits every level before any level repeats, and the minimum
   elapsed per level wins. *)
let sweep ~repeats ~levels ~elapsed run =
  let best = Hashtbl.create 8 in
  for rep = 1 to max 1 repeats do
    List.iter
      (fun jobs ->
        let r = run ~rep jobs in
        match Hashtbl.find_opt best jobs with
        | Some prev when elapsed prev <= elapsed r -> ()
        | Some _ | None -> Hashtbl.replace best jobs r)
      levels
  done;
  List.map (fun jobs -> (jobs, Hashtbl.find best jobs)) levels

type derived = {
  d_speedup : float;  (* T_ref / T_n *)
  d_efficiency : float;  (* speedup / (jobs / ref_jobs) *)
  d_serial_fraction : float option;
      (* per-level Amdahl estimate; None at the reference level *)
  d_lost_s : float;  (* jobs * elapsed - ref elapsed: extra domain-seconds *)
}

type analysis = {
  a_program : string;
  a_reference_jobs : int;
  a_levels : (Ledger.entry * derived) list;  (* ascending jobs *)
  a_serial_fraction : float option;  (* Amdahl fit over jobs > reference *)
  a_loss_centers : (string * float) list;
      (* lost seconds by named center at the highest level, descending *)
}

let finite f =
  match Float.classify_float f with FP_nan | FP_infinite -> 0. | _ -> f

let clamp01 f = Float.max 0. (Float.min 1. f)

(* Amdahl per-level estimate: with T(n) = T1 * (s + (1-s)/n), the
   serial fraction observed at effective parallelism [n] is
   s = (n/speedup - 1) / (n - 1). *)
let amdahl_fraction ~n ~speedup =
  if n <= 1. || speedup <= 0. then None
  else Some (clamp01 ((n /. speedup -. 1.) /. (n -. 1.)))

let analyze ~program levels =
  match List.sort (fun a b -> compare (jobs a) (jobs b)) levels with
  | [] -> Error "scaling analysis needs at least one jobs level"
  | reference :: _ as sorted ->
      let dup =
        let rec find = function
          | a :: (b :: _ as rest) ->
              if jobs a = jobs b then Some (jobs a) else find rest
          | _ -> None
        in
        find sorted
      in
      (match dup with
      | Some j -> Error (Printf.sprintf "duplicate jobs level %d" j)
      | None ->
          let t_ref = elapsed reference in
          let derive l =
            let n = float_of_int (jobs l) /. float_of_int (max 1 (jobs reference)) in
            let speedup =
              if elapsed l > 0. then finite (t_ref /. elapsed l) else 0.
            in
            let efficiency = if n > 0. then finite (speedup /. n) else 0. in
            {
              d_speedup = speedup;
              d_efficiency = efficiency;
              d_serial_fraction = amdahl_fraction ~n ~speedup;
              d_lost_s =
                Float.max 0.
                  ((float_of_int (jobs l) *. elapsed l) -. t_ref);
            }
          in
          let pairs = List.map (fun l -> (l, derive l)) sorted in
          let estimates =
            List.filter_map (fun (_, d) -> d.d_serial_fraction) pairs
          in
          let fitted =
            match estimates with
            | [] -> None
            | es ->
                Some (List.fold_left ( +. ) 0. es /. float_of_int (List.length es))
          in
          let loss_centers =
            match List.rev pairs with
            | [] -> []
            | (top, d) :: _ ->
                let named =
                  List.map
                    (fun c -> (c, seconds (wall_us c top)))
                    [ "engine/queue_wait"; "px86/snapshot_copy"; "engine/merge" ]
                in
                let accounted =
                  List.fold_left (fun acc (_, v) -> acc +. v) 0. named
                in
                let rows =
                  named @ [ ("other", Float.max 0. (d.d_lost_s -. accounted)) ]
                in
                List.sort (fun (_, a) (_, b) -> compare b a) rows
          in
          Ok
            {
              a_program = program;
              a_reference_jobs = jobs reference;
              a_levels = pairs;
              a_serial_fraction = fitted;
              a_loss_centers = loss_centers;
            })

(* ------------------------------------------------------------------ *)
(* The two-class export                                                 *)

(* Flat JSONL row per level ({!Yashme_util.Json.encode_obj} shape).
   The [timing:false] prefix is the jobs-invariant projection;
   [timing:true] appends the wall-clock class after it, so projection
   consumers keep a stable field prefix. *)
let fields ?(timing = true) ~program (l, d) :
    (string * Yashme_util.Json.value) list =
  let invariant =
    [
      ("program", `S program);
      ("jobs", `I l.Ledger.e_jobs);
      ("scenarios", `I l.Ledger.e_scenarios);
      ("completed", `I l.Ledger.e_completed);
      ("faulted", `I l.Ledger.e_faulted);
      ("executions", `I l.Ledger.e_executions);
      ("ops", `I l.Ledger.e_ops);
      ("races", `I l.Ledger.e_races);
      ("witnesses", `I l.Ledger.e_witnesses);
      ("snapshot_bytes", `I (units "px86/snapshot_copy" l));
    ]
  in
  if not timing then invariant
  else
    invariant
    @ [
        ("elapsed_s", `F l.Ledger.e_elapsed_s);
        ("cpu_s", `F l.Ledger.e_cpu_s);
        ("speedup", `F d.d_speedup);
        ("efficiency", `F d.d_efficiency);
        ( "serial_fraction",
          match d.d_serial_fraction with Some s -> `F s | None -> `Null );
        ("lost_s", `F d.d_lost_s);
        ("queue_wait_s", `F (seconds (wall_us "engine/queue_wait" l)));
        ("snapshot_s", `F (seconds (wall_us "px86/snapshot_copy" l)));
        ("merge_s", `F (seconds (wall_us "engine/merge" l)));
        ("gc_minor_words", `I (units "gc/minor" l));
        ("gc_major_words", `I (units "gc/major" l));
      ]

(* The sweep's own determinism check: every level's non-timing
   projection (minus the [jobs] identity) must equal the reference
   level's.  Names the first diverging field, so a violation of the
   engine's determinism contract is diagnosable from the CI log. *)
let check ~program levels =
  match List.sort (fun a b -> compare (jobs a) (jobs b)) levels with
  | [] -> Error "scaling check needs at least one jobs level"
  | reference :: rest ->
      let zero = { d_speedup = 0.; d_efficiency = 0.; d_serial_fraction = None; d_lost_s = 0. } in
      let projection l =
        List.filter
          (fun (k, _) -> k <> "jobs")
          (fields ~timing:false ~program (l, zero))
      in
      let ref_proj = projection reference in
      let rec scan = function
        | [] -> Ok ()
        | l :: rest -> (
            let proj = projection l in
            match
              List.find_opt
                (fun ((k, v), (_, v')) -> ignore k; v <> v')
                (List.combine ref_proj proj)
            with
            | Some ((k, _), _) ->
                Error
                  (Printf.sprintf
                     "non-timing field %S differs between jobs=%d and jobs=%d"
                     k (jobs reference) (jobs l))
            | None -> scan rest)
      in
      scan rest

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)

let fmt_s v = Printf.sprintf "%.4fs" v
let fmt_words w =
  if w >= 1_000_000 then Printf.sprintf "%.1fMw" (float_of_int w /. 1_000_000.)
  else if w >= 1_000 then Printf.sprintf "%.1fkw" (float_of_int w /. 1_000.)
  else Printf.sprintf "%dw" w

let pp ppf a =
  Format.fprintf ppf "@[<v>%s scaling (reference jobs=%d):" a.a_program
    a.a_reference_jobs;
  let header =
    [ "jobs"; "elapsed"; "speedup"; "efficiency"; "queue-wait"; "snapshot";
      "merge"; "gc-minor"; "lost" ]
  in
  let rows =
    List.map
      (fun (l, d) ->
        [
          string_of_int (jobs l);
          fmt_s (elapsed l);
          Printf.sprintf "%.2fx" d.d_speedup;
          Printf.sprintf "%.1f%%" (100. *. d.d_efficiency);
          fmt_s (seconds (wall_us "engine/queue_wait" l));
          fmt_s (seconds (wall_us "px86/snapshot_copy" l));
          fmt_s (seconds (wall_us "engine/merge" l));
          fmt_words (units "gc/minor" l);
          (if jobs l = a.a_reference_jobs then "-" else fmt_s d.d_lost_s);
        ])
      a.a_levels
  in
  List.iter
    (Format.fprintf ppf "@,  %s")
    (Yashme_util.Pretty.columns (header :: rows));
  (match a.a_serial_fraction with
  | Some s -> Format.fprintf ppf "@,  serial fraction (Amdahl fit): %.2f" s
  | None -> Format.fprintf ppf "@,  serial fraction: n/a (single jobs level)");
  (match a.a_loss_centers with
  | [] -> ()
  | centers ->
      Format.fprintf ppf "@,  loss centers at jobs=%d: %s"
        (match List.rev a.a_levels with (l, _) :: _ -> jobs l | [] -> 0)
        (String.concat ", "
           (List.map (fun (n, v) -> Printf.sprintf "%s %s" n (fmt_s v)) centers)));
  Format.fprintf ppf "@]"

let to_string a = Format.asprintf "%a" pp a
