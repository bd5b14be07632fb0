(* Tests for the PRNG substrate: SplitMix64, xoshiro256** and the
   distribution layer. Statistical tests use fixed seeds, so they are
   deterministic. *)

let check_bool = Alcotest.(check bool)
let check_int64 = Alcotest.(check int64)

let checkf ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let check_raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

(* ------------------------------------------------------------------ *)
(* SplitMix64                                                          *)

let test_splitmix_determinism () =
  let a = Prng.Splitmix64.create 12345L in
  let b = Prng.Splitmix64.create 12345L in
  for i = 1 to 100 do
    check_int64
      (Printf.sprintf "draw %d" i)
      (Prng.Splitmix64.next a) (Prng.Splitmix64.next b)
  done

let test_splitmix_seed_sensitivity () =
  let a = Prng.Splitmix64.create 1L in
  let b = Prng.Splitmix64.create 2L in
  check_bool "different seeds, different streams" true
    (Prng.Splitmix64.next a <> Prng.Splitmix64.next b)

let test_splitmix_copy_and_split () =
  let a = Prng.Splitmix64.create 7L in
  let snapshot = Prng.Splitmix64.copy a in
  let x = Prng.Splitmix64.next a in
  check_int64 "copy replays" x (Prng.Splitmix64.next snapshot);
  let child = Prng.Splitmix64.split a in
  check_bool "child differs from parent continuation" true
    (Prng.Splitmix64.next child <> Prng.Splitmix64.next a)

let test_splitmix_bit_mixing () =
  (* Adjacent seeds must produce uncorrelated-looking outputs: count
     differing bits between the first outputs of seeds k and k+1. *)
  let popcount x =
    let n = ref 0 in
    for b = 0 to 63 do
      if Int64.logand x (Int64.shift_left 1L b) <> 0L then incr n
    done;
    !n
  in
  let total = ref 0 in
  for seed = 0 to 99 do
    let a = Prng.Splitmix64.next (Prng.Splitmix64.create (Int64.of_int seed)) in
    let b =
      Prng.Splitmix64.next (Prng.Splitmix64.create (Int64.of_int (seed + 1)))
    in
    total := !total + popcount (Int64.logxor a b)
  done;
  (* Expected ~32 differing bits; accept a generous band. *)
  let avg = float_of_int !total /. 100. in
  check_bool "avalanche" true (avg > 24. && avg < 40.)

(* ------------------------------------------------------------------ *)
(* Xoshiro256                                                          *)

let test_xoshiro_determinism () =
  let a = Prng.Xoshiro256.of_seed 99L in
  let b = Prng.Xoshiro256.of_seed 99L in
  for _ = 1 to 50 do
    check_int64 "same stream" (Prng.Xoshiro256.next a) (Prng.Xoshiro256.next b)
  done

let test_xoshiro_state_roundtrip () =
  let a = Prng.Xoshiro256.of_seed 4L in
  ignore (Prng.Xoshiro256.next a);
  let b = Prng.Xoshiro256.of_state (Prng.Xoshiro256.state a) in
  check_int64 "state roundtrip" (Prng.Xoshiro256.next a)
    (Prng.Xoshiro256.next b);
  check_raises_invalid "all-zero state" (fun () ->
      Prng.Xoshiro256.of_state (0L, 0L, 0L, 0L))

let test_xoshiro_jump () =
  let a = Prng.Xoshiro256.of_seed 5L in
  let b = Prng.Xoshiro256.copy a in
  Prng.Xoshiro256.jump b;
  check_bool "jumped stream differs" true
    (Prng.Xoshiro256.next a <> Prng.Xoshiro256.next b);
  (* Two successive jumps give a third distinct stream. *)
  let c = Prng.Xoshiro256.copy b in
  Prng.Xoshiro256.jump c;
  check_bool "second jump differs" true
    (Prng.Xoshiro256.next b <> Prng.Xoshiro256.next c)

(* Known-answer vectors: a rewrite that shifts any stream, or every
   replica's stream, fails here even if the streams stay distinct. *)
let test_xoshiro_reference_outputs () =
  (* The reference implementation's outputs from state (1, 2, 3, 4);
     the first is rotl (2 * 5, 7) * 9 = 11520. *)
  let g = Prng.Xoshiro256.of_state (1L, 2L, 3L, 4L) in
  List.iteri
    (fun i expected ->
      check_int64 (Printf.sprintf "next %d" i) expected (Prng.Xoshiro256.next g))
    [ 11520L; 0L; 1509978240L; 1215971899390074240L ]

let test_xoshiro_jump_vector () =
  let g = Prng.Xoshiro256.of_state (1L, 2L, 3L, 4L) in
  Prng.Xoshiro256.jump g;
  let s0, s1, s2, s3 = Prng.Xoshiro256.state g in
  check_int64 "s0" 0x8c7a153956b5f3d1L s0;
  check_int64 "s1" 0x701f1a713401d85eL s1;
  check_int64 "s2" 0x6527f66a65469085L s2;
  check_int64 "s3" 0x8386b786c4408050L s3

let test_xoshiro_jump_allocates_nothing () =
  let g = Prng.Xoshiro256.of_seed 5L in
  Prng.Xoshiro256.jump g;
  Alcotest.(check (float 0.)) "words for 1000 jumps" 0.
    (Testutil.minor_words (fun () ->
         for _ = 1 to 1000 do
           Prng.Xoshiro256.jump g
         done))

(* The first draws of replicas 0, 1 and 4095 of
   [Rng.split (Rng.create ~seed:2016) 4096]. *)
let replica_vectors =
  [
    (0, 0x1.3c1c4cf98965p-3);
    (1, 0x1.048d590e06a7p-1);
    (4095, 0x1.d87b3864e30dp-4);
  ]

let check_replica_vectors label firsts =
  List.iter
    (fun (i, expected) ->
      check_int64
        (Printf.sprintf "%s replica %d first float" label i)
        (Int64.bits_of_float expected)
        (Int64.bits_of_float firsts.(i)))
    replica_vectors

let test_split_replica_vectors () =
  (* Each replica's first draw, compared bit for bit. *)
  let replicas = Prng.Rng.split (Prng.Rng.create ~seed:2016) 4096 in
  check_replica_vectors "sequential" (Array.map Prng.Rng.float replicas)

(* The table jump is the polynomial jump, bit for bit. *)
let table_jump_agrees state =
  let table = Prng.Xoshiro256.of_state state in
  let reference = Prng.Xoshiro256.copy table in
  Prng.Xoshiro256.jump table;
  Prng.Xoshiro256.jump_reference reference;
  Prng.Xoshiro256.state table = Prng.Xoshiro256.state reference

let prop_table_jump =
  QCheck.Test.make ~count:2000 ~name:"table jump = polynomial jump, bit for bit"
    QCheck.(quad int64 int64 int64 int64)
    (fun (s0, s1, s2, s3) ->
      QCheck.assume (s0 <> 0L || s1 <> 0L || s2 <> 0L || s3 <> 0L);
      table_jump_agrees (s0, s1, s2, s3))

let test_table_jump_one_bit_states () =
  (* Every one-bit state is one table entry's source, and the all-ones
     state sums an entry of every byte. *)
  for word = 0 to 3 do
    for bit = 0 to 63 do
      let w k = if k = word then Int64.shift_left 1L bit else 0L in
      check_bool
        (Printf.sprintf "word %d bit %d" word bit)
        true
        (table_jump_agrees (w 0, w 1, w 2, w 3))
    done
  done;
  check_bool "all ones" true (table_jump_agrees (-1L, -1L, -1L, -1L))

(* Four domains split the same 4096 streams at once. Run first in the
   suite, so that they also race to build the jump table. *)
let test_split_on_domains () =
  let domains = 4 and ready = Atomic.make 0 in
  let split () =
    Atomic.incr ready;
    while Atomic.get ready < domains do
      Domain.cpu_relax ()
    done;
    Array.map Prng.Rng.float (Prng.Rng.split (Prng.Rng.create ~seed:2016) 4096)
  in
  (* Every first draw, from streams split by the polynomial jump. *)
  let reference =
    let root = Prng.Xoshiro256.of_seed 2016L in
    Array.init 4096 (fun _ ->
        let child = Prng.Xoshiro256.copy root in
        Prng.Xoshiro256.jump_reference root;
        Int64.to_float (Int64.shift_right_logical (Prng.Xoshiro256.next child) 11)
        *. 0x1.0p-53)
  in
  List.iteri
    (fun d firsts ->
      check_replica_vectors (Printf.sprintf "domain %d" d) firsts;
      Array.iteri
        (fun i first ->
          if Int64.bits_of_float first <> Int64.bits_of_float reference.(i) then
            Alcotest.failf "domain %d replica %d differs" d i)
        firsts)
    (List.map Domain.join (List.init domains (fun _ -> Domain.spawn split)))

let test_xoshiro_copy_independence () =
  let a = Prng.Xoshiro256.of_seed 6L in
  let b = Prng.Xoshiro256.copy a in
  ignore (Prng.Xoshiro256.next a);
  ignore (Prng.Xoshiro256.next a);
  ignore (Prng.Xoshiro256.next b);
  (* a advanced twice, b once: states must now differ. *)
  check_bool "copies evolve independently" true
    (Prng.Xoshiro256.state a <> Prng.Xoshiro256.state b)

(* ------------------------------------------------------------------ *)
(* Rng distributions                                                   *)

let test_float_range () =
  let rng = Prng.Rng.create ~seed:1 in
  for _ = 1 to 10_000 do
    let u = Prng.Rng.float rng in
    if u < 0. || u >= 1. then Alcotest.failf "float out of [0,1): %g" u
  done

let test_float_moments () =
  let rng = Prng.Rng.create ~seed:2 in
  let n = 200_000 in
  let acc = Numerics.Summation.create () in
  let acc2 = Numerics.Summation.create () in
  for _ = 1 to n do
    let u = Prng.Rng.float rng in
    Numerics.Summation.add acc u;
    Numerics.Summation.add acc2 (u *. u)
  done;
  let mean = Numerics.Summation.total acc /. float_of_int n in
  let second = Numerics.Summation.total acc2 /. float_of_int n in
  checkf ~eps:5e-3 "uniform mean 1/2" 0.5 mean;
  checkf ~eps:5e-3 "uniform second moment 1/3" (1. /. 3.) second

let test_uniform () =
  let rng = Prng.Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let u = Prng.Rng.uniform rng ~lo:(-2.) ~hi:5. in
    if u < -2. || u >= 5. then Alcotest.failf "uniform out of range: %g" u
  done;
  check_raises_invalid "empty interval" (fun () ->
      Prng.Rng.uniform rng ~lo:1. ~hi:1.)

let test_exponential () =
  let rng = Prng.Rng.create ~seed:4 in
  let rate = 0.25 in
  let n = 100_000 in
  let acc = Numerics.Summation.create () in
  for _ = 1 to n do
    let x = Prng.Rng.exponential rng ~rate in
    if x < 0. then Alcotest.fail "negative exponential variate";
    Numerics.Summation.add acc x
  done;
  let mean = Numerics.Summation.total acc /. float_of_int n in
  checkf ~eps:0.08 "exponential mean 1/rate" 4. mean;
  check_raises_invalid "non-positive rate" (fun () ->
      Prng.Rng.exponential rng ~rate:0.)

let test_exponential_memorylessness () =
  (* P(X > a + b | X > a) = P(X > b): compare tail frequencies. *)
  let rng = Prng.Rng.create ~seed:5 in
  let n = 200_000 in
  let beyond_1 = ref 0 and beyond_2_of_beyond_1 = ref 0 in
  for _ = 1 to n do
    let x = Prng.Rng.exponential rng ~rate:1. in
    if x > 1. then begin
      incr beyond_1;
      if x > 2. then incr beyond_2_of_beyond_1
    end
  done;
  let conditional =
    float_of_int !beyond_2_of_beyond_1 /. float_of_int !beyond_1
  in
  checkf ~eps:0.01 "memorylessness" (exp (-1.)) conditional

let test_bernoulli () =
  let rng = Prng.Rng.create ~seed:6 in
  check_bool "p=0 always false" false
    (List.exists Fun.id
       (List.init 100 (fun _ -> Prng.Rng.bernoulli rng ~p:0.)));
  check_bool "p=1 always true" true
    (List.for_all Fun.id
       (List.init 100 (fun _ -> Prng.Rng.bernoulli rng ~p:1.)));
  let hits = ref 0 in
  for _ = 1 to 100_000 do
    if Prng.Rng.bernoulli rng ~p:0.3 then incr hits
  done;
  checkf ~eps:0.01 "p=0.3 frequency" 0.3 (float_of_int !hits /. 100_000.);
  check_raises_invalid "p out of range" (fun () ->
      Prng.Rng.bernoulli rng ~p:1.5)

let test_int () =
  let rng = Prng.Rng.create ~seed:7 in
  let counts = Array.make 7 0 in
  for _ = 1 to 70_000 do
    let k = Prng.Rng.int rng ~bound:7 in
    if k < 0 || k >= 7 then Alcotest.failf "int out of range: %d" k;
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 9_000 || c > 11_000 then
        Alcotest.failf "residue %d frequency %d out of band" i c)
    counts;
  check_raises_invalid "bound <= 0" (fun () -> Prng.Rng.int rng ~bound:0)

let test_pick () =
  let rng = Prng.Rng.create ~seed:8 in
  let seen = Hashtbl.create 4 in
  for _ = 1 to 1000 do
    Hashtbl.replace seen (Prng.Rng.pick rng [| "a"; "b"; "c" |]) ()
  done;
  Alcotest.(check int) "all elements reachable" 3 (Hashtbl.length seen);
  check_raises_invalid "empty array" (fun () -> Prng.Rng.pick rng [||])

let test_split () =
  let parent = Prng.Rng.create ~seed:9 in
  let children = Prng.Rng.split parent 4 in
  Alcotest.(check int) "requested count" 4 (Array.length children);
  let firsts = Array.map Prng.Rng.float children in
  (* All four streams start differently. *)
  let distinct =
    Array.to_list firsts |> List.sort_uniq compare |> List.length
  in
  Alcotest.(check int) "distinct first draws" 4 distinct;
  (* Determinism: rebuilding from the same seed replays the streams. *)
  let parent' = Prng.Rng.create ~seed:9 in
  let children' = Prng.Rng.split parent' 4 in
  Array.iteri
    (fun i c -> checkf "replayed stream" firsts.(i) (Prng.Rng.float c))
    children';
  check_raises_invalid "negative count" (fun () ->
      ignore (Prng.Rng.split parent (-1)))

let test_float_uniformity_chi_square () =
  (* 50k draws over 20 bins: chi-square against the uniform law at the
     0.1% level. A deterministic seed keeps this stable. *)
  let rng = Prng.Rng.create ~seed:31 in
  let n = 50_000 and bins = 20 in
  let samples = Array.init n (fun _ -> Prng.Rng.float rng) in
  let h = Numerics.Histogram.of_samples ~lo:0. ~hi:1. ~bins samples in
  Alcotest.(check int) "no out-of-range draws" 0
    (h.Numerics.Histogram.underflow + h.Numerics.Histogram.overflow);
  let expected = Array.make bins (float_of_int n /. float_of_int bins) in
  let statistic =
    Numerics.Histogram.chi_square ~observed:h.Numerics.Histogram.counts
      ~expected
  in
  let critical = Numerics.Histogram.chi_square_critical ~df:(bins - 1) in
  if statistic > critical then
    Alcotest.failf "uniformity chi-square %.2f > critical %.2f" statistic
      critical

let test_exponential_distribution_chi_square () =
  (* Exponential variates against their true cdf, 12 equal-probability
     cells (so every expectation is n/12). *)
  let rng = Prng.Rng.create ~seed:32 in
  let rate = 0.5 in
  let n = 48_000 and cells = 12 in
  let counts = Array.make cells 0 in
  for _ = 1 to n do
    let x = Prng.Rng.exponential rng ~rate in
    (* cdf = 1 - e^(-rate x) in [0,1): uniform under the true law. *)
    let u = -.Float.expm1 (-.rate *. x) in
    let cell = Int.min (cells - 1) (int_of_float (u *. float_of_int cells)) in
    counts.(cell) <- counts.(cell) + 1
  done;
  let expected = Array.make cells (float_of_int n /. float_of_int cells) in
  let statistic = Numerics.Histogram.chi_square ~observed:counts ~expected in
  let critical = Numerics.Histogram.chi_square_critical ~df:(cells - 1) in
  if statistic > critical then
    Alcotest.failf "exponential chi-square %.2f > critical %.2f" statistic
      critical

let prop_exponential_positive =
  QCheck.Test.make ~count:100 ~name:"exponential variates are non-negative"
    QCheck.(pair (int_range 0 1000) (float_range 1e-6 1e3))
    (fun (seed, rate) ->
      let rng = Prng.Rng.create ~seed in
      let x = Prng.Rng.exponential rng ~rate in
      x >= 0. && Float.is_finite x)

let () =
  Alcotest.run "prng"
    [
      ( "streams",
        [ Alcotest.test_case "split on 4 domains at once" `Quick
            test_split_on_domains ] );
      ( "splitmix64",
        [
          Alcotest.test_case "determinism" `Quick test_splitmix_determinism;
          Alcotest.test_case "seed sensitivity" `Quick
            test_splitmix_seed_sensitivity;
          Alcotest.test_case "copy and split" `Quick
            test_splitmix_copy_and_split;
          Alcotest.test_case "bit mixing" `Quick test_splitmix_bit_mixing;
        ] );
      ( "xoshiro256",
        [
          Alcotest.test_case "determinism" `Quick test_xoshiro_determinism;
          Alcotest.test_case "state roundtrip" `Quick
            test_xoshiro_state_roundtrip;
          Alcotest.test_case "jump" `Quick test_xoshiro_jump;
          Alcotest.test_case "reference outputs" `Quick
            test_xoshiro_reference_outputs;
          Alcotest.test_case "jump vector" `Quick test_xoshiro_jump_vector;
          Alcotest.test_case "jump allocates nothing" `Quick
            test_xoshiro_jump_allocates_nothing;
          Alcotest.test_case "copy independence" `Quick
            test_xoshiro_copy_independence;
          Alcotest.test_case "table jump, one-bit states" `Quick
            test_table_jump_one_bit_states;
          Testutil.qcheck prop_table_jump;
        ] );
      ( "rng",
        [
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "float moments" `Slow test_float_moments;
          Alcotest.test_case "uniform" `Quick test_uniform;
          Alcotest.test_case "exponential" `Slow test_exponential;
          Alcotest.test_case "memorylessness" `Slow
            test_exponential_memorylessness;
          Alcotest.test_case "bernoulli" `Slow test_bernoulli;
          Alcotest.test_case "int" `Slow test_int;
          Alcotest.test_case "pick" `Quick test_pick;
          Alcotest.test_case "split" `Quick test_split;
          Alcotest.test_case "split replica vectors" `Quick
            test_split_replica_vectors;
          Alcotest.test_case "uniformity chi-square" `Slow
            test_float_uniformity_chi_square;
          Alcotest.test_case "exponential chi-square" `Slow
            test_exponential_distribution_chi_square;
          Testutil.qcheck prop_exponential_positive;
        ] );
    ]
