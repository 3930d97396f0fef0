(* Order statistics for run-to-run timings: medians and quartiles,
   with the same quartile rule as Python's
   [statistics.quantiles(data, n=4)] (the default "exclusive" method),
   so the spreads this benchmark reports agree with the ones a reader
   recomputes from its printed samples. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Cut points dividing the samples into [n] equal-probability groups.
   Exclusive method: positions rescaled to [len + 1], clamped to the
   data, linearly interpolated.  A single sample yields [n - 1] copies
   of itself. *)
let quantiles ?(n = 4) xs =
  if n < 1 then invalid_arg "Stats.quantiles: n < 1";
  match sorted xs with
  | [] -> invalid_arg "Stats.quantiles: no samples"
  | [ x ] -> List.init (n - 1) (fun _ -> x)
  | s ->
      let a = Array.of_list s in
      let ld = Array.length a in
      let m = ld + 1 in
      List.init (n - 1) (fun k ->
          let i = k + 1 in
          let j = max 1 (min (ld - 1) (i * m / n)) in
          let delta = (i * m) - (j * n) in
          ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
          /. float_of_int n)

let iqr xs =
  match quantiles ~n:4 xs with
  | [ q1; _; q3 ] -> q3 -. q1
  | _ -> assert false

(* Nearest-rank percentile ([p] in [0, 100]) for latency tails. *)
let percentile p xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.percentile: no samples"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let safe_div a b = if b = 0. then 0. else a /. b

type summary = { s_median : float; s_q1 : float; s_q3 : float; s_n : int }

let summarize xs =
  match quantiles ~n:4 xs with
  | [ q1; _; q3 ] -> { s_median = median xs; s_q1 = q1; s_q3 = q3; s_n = List.length xs }
  | _ -> assert false

let pp_summary unit ppf s =
  Format.fprintf ppf "median %.6g, IQR %.6g..%.6g %s, n=%d" s.s_median s.s_q1 s.s_q3 unit
    s.s_n
