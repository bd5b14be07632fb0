(* Clock, growable sample buffers and order statistics. *)

(* CLOCK_MONOTONIC in nanoseconds: immune to wall-clock steps, and fine
   enough that a 60 us latency keeps all its digits. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.; len = 0 }

let push s v =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let to_array s = Array.sub s.data 0 s.len

(* Calls [f] at most [times] times, the first at once and the rest
   spread evenly over the next [seconds]: set-up time is sampled across
   the whole run, not only while it starts. *)
let spread ~times ~seconds f =
  let start = now () and done_ = ref 0 in
  fun () ->
    if !done_ < times && now () -. start >= seconds *. float_of_int !done_ /. float_of_int times
    then begin
      incr done_;
      f ()
    end

(* Linear interpolation between closest ranks (the "R-7" rule used by
   numpy and Python's statistics module), so a percentile of a large
   sample moves smoothly instead of jumping between samples. *)
let quantiles values qs =
  let n = Array.length values in
  let sorted = Array.copy values in
  Array.sort Float.compare sorted;
  List.map
    (fun q ->
      if n = 0 then nan
      else begin
        let pos = q *. float_of_int (n - 1) in
        let lo = truncate pos in
        let hi = Int.min (n - 1) (lo + 1) in
        sorted.(lo) +. ((pos -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))
      end)
    qs

let percentile values q = List.hd (quantiles values [ q ])
let median values = percentile values 0.5
let median_list l = median (Array.of_list l)

(* On a shared host the same CPU runs the same code at two speeds,
   switching every few seconds to minutes, and the share of each varies
   from run to run: a median over rounds jumps between the two (serve-cold
   read 4.1k to 7.1k requests per second over ten seeds). Every run
   spends a tenth of its rounds at the slow speed, so end-to-end figures
   are taken there: the rate nine rounds in ten reach, and the time nine
   rounds in ten stay under. Over the same ten runs that cut the
   quartile spread from 0.37 to 0.12. *)
let slow_rate l = percentile (Array.of_list l) 0.1
let slow_time l = percentile (Array.of_list l) 0.9

(* Set-up time over the set-ups of one run: their third quartile. *)
let setup_time l = percentile (Array.of_list l) 0.75
