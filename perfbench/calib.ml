(* The speed of this CPU, from a fixed kernel the program under test
   cannot change.

   On a shared host the same code runs at different speeds: between two
   ten-seed sets every workload ran about twice as fast (serve-hot 17k
   then 33k requests per second, serve-cold 4.3k then 9.1k, offline 46k
   then 100k operations per second, a spin loop 7M then 14.7M iterations
   per CPU-second). The load generator times this kernel before and
   after every round, cycle and set-up, and [scale] brings a run's
   timings to a CPU on which the kernel takes [reference_s]. It times
   the kernel in CPU time, not wall time: a server that kept the CPU
   busy while idle would slow a wall-clock calibration and so hide its
   own cost. *)

let reference_s = 0.001

let words = 1 lsl 14
let buf = Array.make words 0

(* The kinds of work requests and replicas do: formatting floats into a
   buffer, hashing strings, sorting boxed floats, integer mixing over
   128 KiB, and float maths. *)
let kernel () =
  let b = Buffer.create 16384 in
  for i = 1 to 150 do
    Printf.bprintf b "%.6f %d\n" (float_of_int i *. 1.37) i
  done;
  let h = Hashtbl.create 256 in
  for i = 1 to 250 do
    Hashtbl.replace h (string_of_int (i * 7919)) i
  done;
  let hits = ref 0 in
  for i = 1 to 250 do
    if Hashtbl.mem h (string_of_int (i * 31)) then incr hits
  done;
  let sorted = List.sort Float.compare (List.init 800 (fun i -> float_of_int (i * 7919 mod 10_007))) in
  let x = ref 0x2545F491 in
  for i = 0 to 39_999 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let j = !x land (words - 1) in
    Array.unsafe_set buf j (Array.unsafe_get buf j + i)
  done;
  let y = ref 0.5 in
  for i = 1 to 3000 do
    y := Float.log (1. +. Float.exp (!y *. 0.999)) -. (float_of_int (i land 7) *. 1e-3)
  done;
  Buffer.length b + !hits + List.length sorted + !x + truncate !y

(* CPU seconds the kernel takes now. *)
let sample () =
  let t0 = Sys.time () in
  ignore (Sys.opaque_identity (kernel ()));
  Sys.time () -. t0

(* [f ()], with how many times slower than the reference the CPU ran
   around it. *)
let bracket f =
  let before = sample () in
  let v = f () in
  (v, (before +. sample ()) /. 2. /. reference_s)

(* One run's slowdown, from every bracket of the run: the slow tenth,
   to match the end-to-end figures, which [Stats] takes at the slow
   tenth of the rounds. One bracket is too noisy to scale one round
   (its quartiles lie 8% apart on a steady CPU); a run has a hundred or
   more. *)
let run_slowdown brackets = Stats.slow_time brackets

(* End-to-end metrics at the reference speed: rates times the slowdown,
   times divided by it. *)
let scale ~slowdown metrics =
  List.map
    (fun (name, v) ->
      match name with
      | "ops_per_s" -> (name, v *. slowdown)
      | "lat_p50_ms" | "setup_s" -> (name, v /. slowdown)
      | _ -> (name, v))
    metrics
