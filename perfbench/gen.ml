(* Seeded inputs for every workload.

   The benchmark owns its generator (SplitMix64) so that a change to the
   program's own PRNG can never change what the benchmark sends. Every
   input is a pure function of the workload seed. *)

type rng = { mutable state : int64 }

let rng ~seed ~stream =
  {
    state =
      Int64.(add (mul (of_int seed) 0x2545F4914F6CDD1DL) (of_int (stream * 7919)));
  }

let next r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  let z = r.state in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let float r = Int64.to_float (Int64.shift_right_logical (next r) 11) *. 0x1p-53
let int r n = Int.min (n - 1) (truncate (float r *. float_of_int n))

(* The eight platform/processor configurations of the paper, as a
   client spells them; the daemon resolves names case-insensitively. *)
let configs =
  [|
    "hera/xscale"; "hera/crusoe"; "atlas/xscale"; "atlas/crusoe";
    "coastal/xscale"; "coastal/crusoe"; "coastal ssd/xscale";
    "coastal ssd/crusoe";
  |]

(* 8 configurations x 2 modes. Requests cycle through the combinations
   so that every seed sends the same mix of cheap single-speed and
   expensive two-speed queries; only the performance bounds vary. *)
let combos = 2 * Array.length configs

(* Every configuration meets rho >= 1.16 in both modes, so no request
   ends in the infeasible-bound outcome. *)
let rho_lo = 1.5
let rho_span = 3.0

let request_line ~id ~combo ~rho =
  Printf.sprintf
    {|{"route":"optimize","id":%d,"params":{"config":"%s","rho":%s,"single_speed":%b}}|}
    id
    configs.(combo / 2)
    rho (combo mod 2 = 1)

(* ---- serve-hot and fleet-hot ---------------------------------------- *)

let hot_per_combo = 8

(* 128 distinct queries: half the daemon's default 256-entry cache. *)
let hot_keys = combos * hot_per_combo

type hot = {
  keys : (int * string) array;  (** (combo, rho) of each working-set key *)
  sequence : int array;  (** key index of each request of one round *)
}

(* rho is stratified per combination, so keys are distinct by
   construction and every seed covers the whole range. *)
let hot ~seed ~round =
  let r = rng ~seed ~stream:1 in
  let keys =
    Array.init hot_keys (fun k ->
        let combo = k / hot_per_combo and slot = k mod hot_per_combo in
        let u = float r in
        let rho =
          rho_lo
          +. rho_span
             *. (float_of_int slot +. 0.05 +. (0.9 *. u))
             /. float_of_int hot_per_combo
        in
        (combo, Printf.sprintf "%.6f" rho))
  in
  let s = rng ~seed ~stream:2 in
  { keys; sequence = Array.init round (fun _ -> int s hot_keys) }

let hot_line hot ~id k =
  let combo, rho = hot.keys.(k) in
  request_line ~id ~combo ~rho

(* ---- serve-cold ------------------------------------------------------ *)

(* An endless stream of distinct queries: request [i] uses combination
   [i mod 16] and a uniform rho, redrawn on the rare collision so no
   query ever repeats. *)
type cold = {
  rng : rng;
  seen : (int * string, unit) Hashtbl.t;
  mutable produced : int;
}

let cold ~seed = { rng = rng ~seed ~stream:3; seen = Hashtbl.create 65536; produced = 0 }

let rec fresh_rho c combo =
  let rho = Printf.sprintf "%.6f" (rho_lo +. (rho_span *. float c.rng)) in
  if Hashtbl.mem c.seen (combo, rho) then fresh_rho c combo
  else begin
    Hashtbl.replace c.seen (combo, rho) ();
    rho
  end

(* The next [n] lines of the stream, with ids continuing the count. *)
let cold_lines c n =
  Array.init n (fun _ ->
      let id = c.produced in
      c.produced <- id + 1;
      let combo = id mod combos in
      request_line ~id ~combo ~rho:(fresh_rho c combo))

(* Off-the-clock byte checks of cold responses cover one request in
   [cold_sample_every], chosen by the seed. *)
let cold_sample_every = 16

let cold_sampled ~seed id =
  let r = rng ~seed:(seed + id) ~stream:4 in
  int r cold_sample_every = 0

(* ---- offline --------------------------------------------------------- *)

type offline = {
  mc_seed : int;  (** root seed of every Monte-Carlo phase *)
  c_axis : float list;  (** checkpoint-time axis of the sweep *)
  lambda_axis : float list;  (** error-rate axis of the sweep *)
}

(* The sweep axes keep their size and range for every seed; the seed
   only jitters each point, so the solver's work per cell stays the
   same while the inputs differ. *)
let offline ~seed ~nx ~ny =
  let r = rng ~seed ~stream:5 in
  let jitter () = 1. +. (0.02 *. (float r -. 0.5)) in
  {
    mc_seed = 1 + int r 1_000_000_000;
    c_axis =
      List.init nx (fun i ->
          (100. +. (4900. *. float_of_int i /. float_of_int (nx - 1))) *. jitter ());
    lambda_axis =
      List.init ny (fun i ->
          1e-6 *. (10. ** (3. *. float_of_int i /. float_of_int (ny - 1))) *. jitter ());
  }
