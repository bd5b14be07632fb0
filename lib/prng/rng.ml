type t = Xoshiro256.t

let create ~seed = Xoshiro256.of_seed (Int64.of_int seed)

let split t n =
  if n < 0 then invalid_arg "Rng.split: negative count";
  Array.init n (fun _ ->
      let child = Xoshiro256.copy t in
      Xoshiro256.jump t;
      child)

(* Top 53 bits scaled by 2^-53: the standard unbiased (0,1) mapping. *)
let float t =
  let bits = Int64.shift_right_logical (Xoshiro256.next t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let uniform t ~lo ~hi =
  if lo >= hi then invalid_arg "Rng.uniform: empty interval";
  lo +. ((hi -. lo) *. float t)

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate <= 0";
  (* u in [0,1) so 1-u in (0,1]; log1p (-u) = log (1-u) without the
     catastrophic cancellation of log near 1. *)
  let u = float t in
  -.Float.log1p (-.u) /. rate

let bernoulli t ~p =
  if p < 0. || p > 1. then invalid_arg "Rng.bernoulli: p outside [0, 1]";
  float t < p

let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  let bound64 = Int64.of_int bound in
  (* Rejection sampling on the 63-bit non-negative range removes
     modulo bias. The post-shift draw is uniform over the full 2^63
     values [0, Int64.max_int] inclusive, so the acceptance region is
     the largest multiple of [bound] <= 2^63 — not <= Int64.max_int,
     which would needlessly reject up to [bound] values per draw.
     With r = 2^63 mod bound (computed as (max_int mod bound + 1) mod
     bound to stay in range), r = 0 means every draw is accepted. *)
  let r =
    Int64.rem (Int64.add (Int64.rem Int64.max_int bound64) 1L) bound64
  in
  (* First value rejected: 2^63 - r = max_int - (r - 1); max_int + 1
     (never reached by any draw) when r = 0. *)
  let limit =
    if r = 0L then Int64.max_int else Int64.sub Int64.max_int r
  in
  let rec draw () =
    let raw = Int64.shift_right_logical (Xoshiro256.next t) 1 in
    if r <> 0L && raw > limit then draw ()
    else Int64.to_int (Int64.rem raw bound64)
  in
  draw ()

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t ~bound:(Array.length a))
