(* Monotonic wall clock in seconds, with nanosecond resolution.
   [Unix.gettimeofday] is quantized to about 0.24 us at current epoch
   times, too coarse for single snapshot copies. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
