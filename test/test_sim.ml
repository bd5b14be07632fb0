(* Tests for the simulation substrate: fault processes, the DVFS
   machine, traces, the executor's operational semantics and the
   Monte-Carlo layer. *)

open Testutil

let power = Core.Power.make ~kappa:1550. ~p_idle:60. ~p_io:5.2

(* ------------------------------------------------------------------ *)
(* Fault                                                               *)

let test_fault_basic () =
  let f = Sim.Fault.create ~rate:1e-3 in
  checkf "rate accessor" 1e-3 (Sim.Fault.rate f);
  check_close "strike probability"
    (-.Float.expm1 (-1e-3 *. 500.))
    (Sim.Fault.strike_probability f ~duration:500.);
  check_raises_invalid "negative rate" (fun () ->
      Sim.Fault.create ~rate:(-1.));
  check_raises_invalid "negative duration" (fun () ->
      Sim.Fault.strike_probability f ~duration:(-1.))

let test_fault_zero_rate () =
  let f = Sim.Fault.create ~rate:0. in
  let rng = Prng.Rng.create ~seed:1 in
  checkf "never arrives" infinity (Sim.Fault.first_arrival f rng);
  Alcotest.(check bool) "never strikes" true
    (Sim.Fault.strikes_within f rng ~duration:1e12 = None)

let test_fault_empirical_rate () =
  let f = Sim.Fault.create ~rate:2e-3 in
  let rng = Prng.Rng.create ~seed:2 in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    match Sim.Fault.strikes_within f rng ~duration:400. with
    | Some t ->
        if t < 0. || t >= 400. then Alcotest.fail "arrival outside segment";
        incr hits
    | None -> ()
  done;
  let expected = Sim.Fault.strike_probability f ~duration:400. in
  checkf ~eps:0.01 "empirical strike rate" expected
    (float_of_int !hits /. float_of_int n)

let test_fault_scripted () =
  let f = Sim.Fault.scripted ~arrivals:[ 5.; 100.; 2. ] in
  let rng = Prng.Rng.create ~seed:1 in
  (* First query consumes 5. — strikes within a 10-second segment. *)
  (match Sim.Fault.strikes_within f rng ~duration:10. with
  | Some t -> checkf "first arrival" 5. t
  | None -> Alcotest.fail "scripted arrival expected");
  (* Second consumes 100. — misses a 10-second segment. *)
  Alcotest.(check bool) "second misses" true
    (Sim.Fault.strikes_within f rng ~duration:10. = None);
  (* Third consumes 2. *)
  (match Sim.Fault.strikes_within f rng ~duration:10. with
  | Some t -> checkf "third arrival" 2. t
  | None -> Alcotest.fail "third arrival expected");
  (* Exhausted: never fires again. *)
  Alcotest.(check bool) "exhausted" true
    (Sim.Fault.strikes_within f rng ~duration:1e12 = None);
  check_raises_invalid "negative arrival" (fun () ->
      Sim.Fault.scripted ~arrivals:[ -1. ]);
  check_raises_invalid "no rate" (fun () -> Sim.Fault.rate f);
  check_raises_invalid "no closed form" (fun () ->
      Sim.Fault.strike_probability f ~duration:1.)

let test_fault_scripted_exhaustion () =
  (* Once the schedule runs dry the process behaves exactly like a
     zero-rate one, forever: every further query yields infinity /
     None, not an error, and does not resurrect earlier entries. *)
  let f = Sim.Fault.scripted ~arrivals:[ 3. ] in
  let rng = Prng.Rng.create ~seed:7 in
  (match Sim.Fault.strikes_within f rng ~duration:10. with
  | Some t -> checkf "scheduled arrival" 3. t
  | None -> Alcotest.fail "scheduled arrival expected");
  for _ = 1 to 5 do
    checkf "exhausted first_arrival" infinity (Sim.Fault.first_arrival f rng);
    Alcotest.(check bool) "exhausted strikes_within" true
      (Sim.Fault.strikes_within f rng ~duration:1e15 = None)
  done;
  (* An empty schedule is exhausted from the start. *)
  let empty = Sim.Fault.scripted ~arrivals:[] in
  checkf "empty schedule never fires" infinity
    (Sim.Fault.first_arrival empty rng)

(* ------------------------------------------------------------------ *)
(* Machine                                                             *)

let test_machine_accounting () =
  let m = Sim.Machine.create power in
  checkf "initial clock" 0. (Sim.Machine.clock m);
  checkf "initial energy" 0. (Sim.Machine.energy m);
  Sim.Machine.advance_compute m ~speed:0.5 ~duration:100.;
  checkf "clock after compute" 100. (Sim.Machine.clock m);
  check_close "compute energy"
    (100. *. (60. +. (1550. *. 0.125)))
    (Sim.Machine.energy m);
  Sim.Machine.advance_io m ~duration:50.;
  checkf "clock after io" 150. (Sim.Machine.clock m);
  check_close "io energy added"
    ((100. *. (60. +. (1550. *. 0.125))) +. (50. *. 65.2))
    (Sim.Machine.energy m);
  Sim.Machine.reset m;
  checkf "reset clock" 0. (Sim.Machine.clock m);
  checkf "reset energy" 0. (Sim.Machine.energy m);
  check_raises_invalid "negative duration" (fun () ->
      Sim.Machine.advance_compute m ~speed:1. ~duration:(-1.));
  check_raises_invalid "zero speed" (fun () ->
      Sim.Machine.advance_compute m ~speed:0. ~duration:1.)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)

let test_trace_builder () =
  let b = Sim.Trace.builder () in
  Sim.Trace.record b ~at:0.
    (Sim.Trace.Compute { speed = 0.5; duration = 10.; work = 5. });
  Sim.Trace.record b ~at:10.
    (Sim.Trace.Verify { speed = 0.5; duration = 2.; passed = true });
  Sim.Trace.record b ~at:12. (Sim.Trace.Checkpoint { duration = 3. });
  let t = Sim.Trace.finish b in
  Alcotest.(check int) "three events" 3 (List.length t);
  checkf "total time" 15. (Sim.Trace.total_time t);
  Alcotest.(check bool) "well formed" true (Sim.Trace.is_well_formed t);
  Alcotest.(check int) "one checkpoint" 1
    (Sim.Trace.count t (function
      | Sim.Trace.Checkpoint _ -> true
      | Sim.Trace.Compute _ | Sim.Trace.Verify _ | Sim.Trace.Recovery _
      | Sim.Trace.Fail_stop _ ->
          false))

let test_trace_ill_formed () =
  (* A checkpoint without a preceding passed verification. *)
  let b = Sim.Trace.builder () in
  Sim.Trace.record b ~at:0.
    (Sim.Trace.Compute { speed = 1.; duration = 5.; work = 5. });
  Sim.Trace.record b ~at:5. (Sim.Trace.Checkpoint { duration = 1. });
  Alcotest.(check bool) "checkpoint without verify" false
    (Sim.Trace.is_well_formed (Sim.Trace.finish b));
  (* A failed verification not followed by recovery. *)
  let b2 = Sim.Trace.builder () in
  Sim.Trace.record b2 ~at:0.
    (Sim.Trace.Verify { speed = 1.; duration = 1.; passed = false });
  Sim.Trace.record b2 ~at:1. (Sim.Trace.Checkpoint { duration = 1. });
  Alcotest.(check bool) "failed verify then checkpoint" false
    (Sim.Trace.is_well_formed (Sim.Trace.finish b2));
  (* Events out of chronological order. *)
  let b3 = Sim.Trace.builder () in
  Sim.Trace.record b3 ~at:5.
    (Sim.Trace.Compute { speed = 1.; duration = 1.; work = 1. });
  Sim.Trace.record b3 ~at:0.
    (Sim.Trace.Compute { speed = 1.; duration = 1.; work = 1. });
  Alcotest.(check bool) "out of order" false
    (Sim.Trace.is_well_formed (Sim.Trace.finish b3))

(* ------------------------------------------------------------------ *)
(* Executor                                                            *)

let silent_model lambda_s =
  Core.Mixed.make ~c:300. ~r:300. ~v:15.4 ~lambda_f:0. ~lambda_s ()

let test_error_free_pattern () =
  (* Negligible error rate: the pattern runs exactly once. *)
  let model = silent_model 1e-15 in
  let machine = Sim.Machine.create power in
  let rng = Prng.Rng.create ~seed:3 in
  let o =
    Sim.Executor.run_pattern ~model ~machine ~rng ~w:1000. ~sigma1:0.5
      ~sigma2:1. ()
  in
  check_close "time = (W+V)/s1 + C" ((1015.4 /. 0.5) +. 300.) o.Sim.Executor.time;
  Alcotest.(check int) "no re-executions" 0 o.Sim.Executor.re_executions;
  let compute_power = Core.Power.compute_total power 0.5 in
  check_close "energy"
    ((1015.4 /. 0.5 *. compute_power) +. (300. *. Core.Power.io_total power))
    o.Sim.Executor.energy

let test_reexecutions_at_sigma2 () =
  (* Error-heavy silent model: every re-execution must run at sigma2.
     Verified on the trace. *)
  let model = Core.Mixed.make ~c:10. ~r:10. ~v:5. ~lambda_f:0. ~lambda_s:2e-3 () in
  let machine = Sim.Machine.create power in
  let rng = Prng.Rng.create ~seed:4 in
  let trace = Sim.Trace.builder () in
  let o =
    Sim.Executor.run_pattern ~trace ~model ~machine ~rng ~w:1000. ~sigma1:0.4
      ~sigma2:0.9 ()
  in
  Alcotest.(check bool) "at least one re-execution happened" true
    (o.Sim.Executor.re_executions > 0);
  let events = Sim.Trace.finish trace in
  Alcotest.(check bool) "trace well formed" true
    (Sim.Trace.is_well_formed events);
  let compute_speeds =
    List.filter_map
      (fun (e : Sim.Trace.event) ->
        match e.segment with
        | Sim.Trace.Compute { speed; _ } -> Some speed
        | Sim.Trace.Verify _ | Sim.Trace.Checkpoint _ | Sim.Trace.Recovery _
        | Sim.Trace.Fail_stop _ ->
            None)
      events
  in
  (match compute_speeds with
  | first :: rest ->
      checkf "first attempt at sigma1" 0.4 first;
      List.iter (fun s -> checkf "re-execution at sigma2" 0.9 s) rest
  | [] -> Alcotest.fail "no compute segments recorded");
  (* The last verification passed, earlier ones failed. *)
  let verdicts =
    List.filter_map
      (fun (e : Sim.Trace.event) ->
        match e.segment with
        | Sim.Trace.Verify { passed; _ } -> Some passed
        | Sim.Trace.Compute _ | Sim.Trace.Checkpoint _ | Sim.Trace.Recovery _
        | Sim.Trace.Fail_stop _ ->
            None)
      events
  in
  (match List.rev verdicts with
  | last :: earlier ->
      Alcotest.(check bool) "final verify passes" true last;
      Alcotest.(check bool) "earlier verifies failed" true
        (List.for_all not earlier)
  | [] -> Alcotest.fail "no verifications recorded")

let test_failstop_cuts_attempt () =
  (* Fail-stop-heavy model: fail-stop events appear in the trace and
     each is immediately followed by a recovery. *)
  let model = Core.Mixed.make ~c:10. ~r:20. ~v:5. ~lambda_f:1e-3 ~lambda_s:0. () in
  let machine = Sim.Machine.create power in
  let rng = Prng.Rng.create ~seed:5 in
  let trace = Sim.Trace.builder () in
  let o =
    Sim.Executor.run_pattern ~trace ~model ~machine ~rng ~w:2000. ~sigma1:0.5
      ~sigma2:1. ()
  in
  Alcotest.(check bool) "fail-stop errors occurred" true
    (o.Sim.Executor.fail_stop_errors > 0);
  Alcotest.(check int) "no silent errors in fail-stop-only model" 0
    o.Sim.Executor.silent_errors;
  Alcotest.(check bool) "trace well formed" true
    (Sim.Trace.is_well_formed (Sim.Trace.finish trace))

let test_pattern_determinism () =
  let model = silent_model 5e-4 in
  let run seed =
    let machine = Sim.Machine.create power in
    let rng = Prng.Rng.create ~seed in
    Sim.Executor.run_pattern ~model ~machine ~rng ~w:1500. ~sigma1:0.6
      ~sigma2:0.8 ()
  in
  let a = run 7 and b = run 7 and c = run 8 in
  checkf "same seed same time" a.Sim.Executor.time b.Sim.Executor.time;
  checkf "same seed same energy" a.Sim.Executor.energy b.Sim.Executor.energy;
  Alcotest.(check bool) "different seed differs" true
    (a.Sim.Executor.time <> c.Sim.Executor.time
    || a.Sim.Executor.re_executions <> c.Sim.Executor.re_executions)

let test_application_patterns () =
  let model = silent_model 1e-15 in
  let rng = Prng.Rng.create ~seed:9 in
  let o =
    Sim.Executor.run_application ~model ~power ~rng ~w_base:2500.
      ~pattern_w:1000. ~sigma1:1. ~sigma2:1. ()
  in
  Alcotest.(check int) "ceil(2500/1000) patterns" 3 o.Sim.Executor.patterns;
  (* Error-free: makespan = work/speed + per-pattern V and C. *)
  check_close "makespan"
    (2500. +. (3. *. 15.4) +. (3. *. 300.))
    o.Sim.Executor.makespan;
  check_raises_invalid "zero w_base" (fun () ->
      Sim.Executor.run_application ~model ~power ~rng ~w_base:0.
        ~pattern_w:10. ~sigma1:1. ~sigma2:1. ())

let test_application_remainder_pattern () =
  (* The trailing pattern carries the remainder work. *)
  let model = silent_model 1e-15 in
  let rng = Prng.Rng.create ~seed:10 in
  let trace = Sim.Trace.builder () in
  let o =
    Sim.Executor.run_application ~trace ~model ~power ~rng ~w_base:1750.
      ~pattern_w:500. ~sigma1:1. ~sigma2:1. ()
  in
  Alcotest.(check int) "four patterns" 4 o.Sim.Executor.patterns;
  let works =
    List.filter_map
      (fun (e : Sim.Trace.event) ->
        match e.segment with
        | Sim.Trace.Compute { work; _ } -> Some work
        | Sim.Trace.Verify _ | Sim.Trace.Checkpoint _ | Sim.Trace.Recovery _
        | Sim.Trace.Fail_stop _ ->
            None)
      (Sim.Trace.finish trace)
  in
  check_close "total work executed" 1750. (Numerics.Summation.sum_list works);
  check_close "last pattern is the remainder" 250.
    (List.nth works (List.length works - 1))

let test_scripted_failure_injection () =
  (* Deterministic schedule: a fail-stop 100 s into the first attempt,
     then a silent error during the second attempt's compute, then
     clean. Every duration and energy is checked by hand. *)
  let model = Core.Mixed.make ~c:50. ~r:30. ~v:10. ~lambda_f:1e-9 ~lambda_s:1e-9 () in
  let fail_process = Sim.Fault.scripted ~arrivals:[ 100.; infinity; infinity ] in
  (* Silent queries happen only on attempts that survive fail-stop:
     attempt 2 gets arrival 1. (strikes), attempt 3 gets infinity. *)
  let silent_process = Sim.Fault.scripted ~arrivals:[ 1.; infinity ] in
  let machine = Sim.Machine.create power in
  let rng = Prng.Rng.create ~seed:0 in
  let trace = Sim.Trace.builder () in
  let o =
    Sim.Executor.run_pattern ~trace ~fail_process ~silent_process ~model
      ~machine ~rng ~w:1000. ~sigma1:0.5 ~sigma2:1. ()
  in
  Alcotest.(check int) "two re-executions" 2 o.Sim.Executor.re_executions;
  Alcotest.(check int) "one fail-stop" 1 o.Sim.Executor.fail_stop_errors;
  Alcotest.(check int) "one silent" 1 o.Sim.Executor.silent_errors;
  (* Attempt 1: 100 s at 0.5 + R. Attempt 2 (at sigma2 = 1): full
     compute 1000 + verify 10, fails, + R. Attempt 3: 1010 + C. *)
  check_close "hand-computed time"
    (100. +. 30. +. 1010. +. 30. +. 1010. +. 50.)
    o.Sim.Executor.time;
  let cp s = Core.Power.compute_total power s in
  check_close "hand-computed energy"
    ((100. *. cp 0.5) +. (30. *. Core.Power.io_total power)
    +. (1010. *. cp 1.) +. (30. *. Core.Power.io_total power)
    +. (1010. *. cp 1.) +. (50. *. Core.Power.io_total power))
    o.Sim.Executor.energy;
  Alcotest.(check bool) "trace well formed" true
    (Sim.Trace.is_well_formed (Sim.Trace.finish trace))

(* Shared fixture for the scripted-schedule tests below: small numbers
   so every duration can be checked by hand. W = 100, C = 10, R = 7,
   V = 5, first attempt at sigma1 = 1, re-executions at sigma2 = 2. *)
let scripted_model =
  Core.Mixed.make ~c:10. ~r:7. ~v:5. ~lambda_f:1e-9 ~lambda_s:1e-9 ()

let test_scripted_silent_only () =
  (* Silent-only schedule: the fail-stop process never fires; the
     silent process strikes during attempt 1's compute, then stays
     quiet. *)
  let fail_process = Sim.Fault.scripted ~arrivals:[ infinity; infinity ] in
  let silent_process = Sim.Fault.scripted ~arrivals:[ 50.; infinity ] in
  let machine = Sim.Machine.create power in
  let rng = Prng.Rng.create ~seed:0 in
  let o =
    Sim.Executor.run_pattern ~fail_process ~silent_process
      ~model:scripted_model ~machine ~rng ~w:100. ~sigma1:1. ~sigma2:2. ()
  in
  Alcotest.(check int) "one re-execution" 1 o.Sim.Executor.re_executions;
  Alcotest.(check int) "one silent" 1 o.Sim.Executor.silent_errors;
  Alcotest.(check int) "no fail-stop" 0 o.Sim.Executor.fail_stop_errors;
  (* Attempt 1 at speed 1: compute 100 + verify 5 (fails) + R.
     Attempt 2 at speed 2: compute 50 + verify 2.5 + C. *)
  check_close "hand-computed time"
    (100. +. 5. +. 7. +. 50. +. 2.5 +. 10.)
    o.Sim.Executor.time;
  let cp s = Core.Power.compute_total power s in
  let io = Core.Power.io_total power in
  check_close "hand-computed energy"
    ((105. *. cp 1.) +. (7. *. io) +. (52.5 *. cp 2.) +. (10. *. io))
    o.Sim.Executor.energy

let test_scripted_failstop_mid_attempt () =
  (* A fail-stop 30 s into attempt 1 cuts it short: only the elapsed
     compute is paid, then recovery; the retry at sigma2 is clean.
     The silent process is only consulted on the surviving attempt. *)
  let fail_process = Sim.Fault.scripted ~arrivals:[ 30.; infinity ] in
  let silent_process = Sim.Fault.scripted ~arrivals:[ infinity ] in
  let machine = Sim.Machine.create power in
  let rng = Prng.Rng.create ~seed:0 in
  let o =
    Sim.Executor.run_pattern ~fail_process ~silent_process
      ~model:scripted_model ~machine ~rng ~w:100. ~sigma1:1. ~sigma2:2. ()
  in
  Alcotest.(check int) "one re-execution" 1 o.Sim.Executor.re_executions;
  Alcotest.(check int) "one fail-stop" 1 o.Sim.Executor.fail_stop_errors;
  Alcotest.(check int) "no silent" 0 o.Sim.Executor.silent_errors;
  (* Attempt 1: 30 s at speed 1 + R. Attempt 2 at speed 2: compute 50
     + verify 2.5 + C. *)
  check_close "hand-computed time"
    (30. +. 7. +. 50. +. 2.5 +. 10.)
    o.Sim.Executor.time;
  let cp s = Core.Power.compute_total power s in
  let io = Core.Power.io_total power in
  check_close "hand-computed energy"
    ((30. *. cp 1.) +. (7. *. io) +. (52.5 *. cp 2.) +. (10. *. io))
    o.Sim.Executor.energy

let test_scripted_application_mixed () =
  (* A 250-unit application split into 100-unit patterns (so 100, 100
     and a 50-unit remainder). Pattern 1 eats a silent error on
     attempt 1, then a fail-stop 40 s into attempt 2; patterns 2-3 are
     clean. Each query consumes one arrival from its process, in
     pattern order — the schedules below are aligned query by query. *)
  let fail_process =
    (* attempt 1 of p1 (clean), attempt 2 of p1 (strikes at 40),
       attempt 3 of p1, p2, p3. *)
    Sim.Fault.scripted ~arrivals:[ infinity; 40.; infinity; infinity; infinity ]
  in
  let silent_process =
    (* Queried only on attempts that survive fail-stop: attempt 1 of
       p1 (strikes at 5), attempt 3 of p1, p2, p3. *)
    Sim.Fault.scripted ~arrivals:[ 5.; infinity; infinity; infinity ]
  in
  let rng = Prng.Rng.create ~seed:0 in
  let o =
    Sim.Executor.run_application ~fail_process ~silent_process
      ~model:scripted_model ~power ~rng ~w_base:250. ~pattern_w:100.
      ~sigma1:1. ~sigma2:2. ()
  in
  Alcotest.(check int) "three patterns" 3 o.Sim.Executor.patterns;
  Alcotest.(check int) "two re-executions" 2 o.Sim.Executor.re_executions;
  Alcotest.(check int) "one silent" 1 o.Sim.Executor.silent_errors;
  Alcotest.(check int) "one fail-stop" 1 o.Sim.Executor.fail_stop_errors;
  (* Pattern 1: (100 + 5 + R) + (40 + R) + (50 + 2.5 + C) = 221.5.
     Pattern 2: 100 + 5 + C = 115. Pattern 3 (remainder, W = 50):
     50 + 5 + C = 65. *)
  check_close "hand-computed makespan" (221.5 +. 115. +. 65.)
    o.Sim.Executor.makespan;
  (* Compute at speed 1: 105 + 105 + 55; at speed 2: 40 + 52.5;
     io: recoveries 7 + 7, checkpoints 10 + 10 + 10. *)
  let cp s = Core.Power.compute_total power s in
  let io = Core.Power.io_total power in
  check_close "hand-computed energy"
    ((265. *. cp 1.) +. (92.5 *. cp 2.) +. (44. *. io))
    o.Sim.Executor.total_energy

let test_multi_verification_pattern () =
  (* m = 4 verifications, error-free: time and energy follow the
     multi-verification formula exactly. *)
  let model = Core.Mixed.make ~c:100. ~r:100. ~v:8. ~lambda_f:0. ~lambda_s:1e-15 () in
  let machine = Sim.Machine.create power in
  let rng = Prng.Rng.create ~seed:21 in
  let trace = Sim.Trace.builder () in
  let o =
    Sim.Executor.run_pattern ~trace ~verifications:4 ~model ~machine ~rng
      ~w:2000. ~sigma1:0.5 ~sigma2:1. ()
  in
  check_close "time = (W + 4V)/s + C" (((2000. +. 32.) /. 0.5) +. 100.)
    o.Sim.Executor.time;
  let events = Sim.Trace.finish trace in
  Alcotest.(check int) "four verifications" 4
    (Sim.Trace.count events (function
      | Sim.Trace.Verify _ -> true
      | Sim.Trace.Compute _ | Sim.Trace.Checkpoint _ | Sim.Trace.Recovery _
      | Sim.Trace.Fail_stop _ ->
          false));
  Alcotest.(check int) "four segments" 4
    (Sim.Trace.count events (function
      | Sim.Trace.Compute _ -> true
      | Sim.Trace.Verify _ | Sim.Trace.Checkpoint _ | Sim.Trace.Recovery _
      | Sim.Trace.Fail_stop _ ->
          false));
  Alcotest.(check int) "one checkpoint" 1
    (Sim.Trace.count events (function
      | Sim.Trace.Checkpoint _ -> true
      | Sim.Trace.Compute _ | Sim.Trace.Verify _ | Sim.Trace.Recovery _
      | Sim.Trace.Fail_stop _ ->
          false));
  check_raises_invalid "verifications < 1" (fun () ->
      Sim.Executor.run_pattern ~verifications:0 ~model ~machine ~rng ~w:10.
        ~sigma1:1. ~sigma2:1. ())

let test_multi_verification_early_detection () =
  (* A silent error in the first of 4 segments is caught at the first
     verification: only W/4 + V is wasted, not the whole pattern. *)
  let model = Core.Mixed.make ~c:50. ~r:25. ~v:10. ~lambda_f:0. ~lambda_s:1e-9 () in
  let silent_process = Sim.Fault.scripted ~arrivals:[ 10.; infinity; infinity; infinity; infinity ] in
  let machine = Sim.Machine.create power in
  let rng = Prng.Rng.create ~seed:3 in
  let o =
    Sim.Executor.run_pattern ~verifications:4 ~silent_process ~model ~machine
      ~rng ~w:2000. ~sigma1:1. ~sigma2:1. ()
  in
  (* Wasted: segment 500 + verify 10, recovery 25; then a clean pass
     2000 + 40 + checkpoint 50. *)
  check_close "early detection wastes one segment"
    (500. +. 10. +. 25. +. 2040. +. 50.)
    o.Sim.Executor.time;
  Alcotest.(check int) "one silent error" 1 o.Sim.Executor.silent_errors

(* One silent error, then one fail-stop, then a clean pass over two
   verified segments: the executor's segment stream and its phase spans
   are pinned event for event. *)
let scripted_pattern () =
  let model =
    Core.Mixed.make ~c:10. ~r:10. ~v:2. ~lambda_f:1e-3 ~lambda_s:1e-3 ()
  in
  let trace = Sim.Trace.builder () in
  let o =
    Sim.Executor.run_pattern ~trace ~verifications:2
      ~fail_process:(Sim.Fault.scripted ~arrivals:[ 1e9; 5. ])
      ~silent_process:(Sim.Fault.scripted ~arrivals:[ 1. ])
      ~model ~machine:(Sim.Machine.create power) ~rng:(Prng.Rng.create ~seed:1)
      ~w:100. ~sigma1:0.5 ~sigma2:1. ()
  in
  (o, Sim.Trace.finish trace)

let test_scripted_segment_stream () =
  let o, events = scripted_pattern () in
  let open Sim.Trace in
  let event at segment = { at; segment } in
  let expected =
    [
      event 0. (Compute { speed = 0.5; duration = 100.; work = 50. });
      event 100. (Verify { speed = 0.5; duration = 4.; passed = false });
      event 104. (Recovery { duration = 10. });
      event 114. (Fail_stop { elapsed = 5. });
      event 119. (Recovery { duration = 10. });
      event 129. (Compute { speed = 1.; duration = 50.; work = 50. });
      event 179. (Verify { speed = 1.; duration = 2.; passed = true });
      event 181. (Compute { speed = 1.; duration = 50.; work = 50. });
      event 231. (Verify { speed = 1.; duration = 2.; passed = true });
      event 233. (Checkpoint { duration = 10. });
    ]
  in
  let show t = Format.asprintf "%a" pp t in
  Alcotest.(check string) "segment stream" (show expected) (show events);
  Alcotest.(check bool) "segment stream, bit for bit" true (events = expected);
  checkf "pattern time" 243. o.Sim.Executor.time;
  (* Inside a sampled traced task, each segment is one phase span and
     each re-execution one reexec span around its attempt. *)
  Tracing.Tracer.start ~sample_every:1 ();
  let dump =
    Fun.protect
      ~finally:(fun () -> ignore (Tracing.Tracer.finish ()))
      (fun () ->
        ignore (Tracing.Tracer.with_task ~index:0 scripted_pattern);
        Option.get (Tracing.Tracer.finish ()))
  in
  let spans = Tracing.Export.spans_of dump in
  Alcotest.(check int) "balanced" 0 (Tracing.Export.unmatched dump);
  Alcotest.(check (list (pair string int)))
    "phase spans per category"
    [
      ("work", 4);
      ("verify", 3);
      ("checkpoint", 1);
      ("recover", 2);
      ("reexec", 2);
      ("pool.task", 1);
    ]
    (List.filter_map
       (fun c ->
         match
           List.length
             (List.filter
                (fun (s : Tracing.Export.span) -> s.category = c)
                spans)
         with
         | 0 -> None
         | n -> Some (Tracing.Span.category_name c, n))
       Tracing.Span.all_categories)

(* ------------------------------------------------------------------ *)
(* Monte-Carlo vs the closed forms                                     *)

let test_montecarlo_matches_prop2 () =
  let model = silent_model 4e-4 in
  let c =
    Sim.Montecarlo.check_pattern_time ~replicas:3000 ~seed:11 ~model ~power
      ~w:2000. ~sigma1:0.5 ~sigma2:1. ()
  in
  if not c.Sim.Montecarlo.ok then
    Alcotest.failf "time mismatch: %s"
      (Format.asprintf "%a" Sim.Montecarlo.pp_check c)

let test_montecarlo_matches_prop3 () =
  let model = silent_model 4e-4 in
  let c =
    Sim.Montecarlo.check_pattern_energy ~replicas:3000 ~seed:12 ~model ~power
      ~w:2000. ~sigma1:0.5 ~sigma2:1. ()
  in
  if not c.Sim.Montecarlo.ok then
    Alcotest.failf "energy mismatch: %s"
      (Format.asprintf "%a" Sim.Montecarlo.pp_check c)

let test_montecarlo_matches_mixed () =
  let model =
    Core.Mixed.make ~c:120. ~r:60. ~v:30. ~lambda_f:2e-4 ~lambda_s:2e-4 ()
  in
  let time =
    Sim.Montecarlo.check_pattern_time ~replicas:3000 ~seed:13 ~model ~power
      ~w:3000. ~sigma1:0.5 ~sigma2:1. ()
  in
  let reexec =
    Sim.Montecarlo.check_reexecutions ~replicas:3000 ~seed:14 ~model ~power
      ~w:3000. ~sigma1:0.5 ~sigma2:1. ()
  in
  Alcotest.(check bool) "mixed time matches" true time.Sim.Montecarlo.ok;
  Alcotest.(check bool) "mixed re-executions match" true
    reexec.Sim.Montecarlo.ok

let test_montecarlo_rejects_wrong_model () =
  (* Feed the checker a deliberately wrong expectation (the printed
     Prop 4 under a huge V): the simulator should *refute* it while
     accepting the recursion closed form. This is the erratum test at
     the operational level. *)
  let model =
    Core.Mixed.make ~c:50. ~r:50. ~v:800. ~lambda_f:8e-4 ~lambda_s:8e-4 ()
  in
  let w = 2000. and sigma1 = 0.5 and sigma2 = 1. in
  let replicas = 8000 in
  let ours =
    Sim.Montecarlo.check_pattern_time ~replicas ~seed:15 ~model ~power ~w
      ~sigma1 ~sigma2 ()
  in
  Alcotest.(check bool) "recursion form accepted" true ours.Sim.Montecarlo.ok;
  let printed_expectation =
    Core.Mixed.expected_time_printed model ~w ~sigma1 ~sigma2
  in
  let z_printed =
    Float.abs (ours.Sim.Montecarlo.observed.Numerics.Stats.mean -. printed_expectation)
    /. ours.Sim.Montecarlo.observed.Numerics.Stats.std_error
  in
  Alcotest.(check bool) "printed Prop 4 refuted (z > 5)" true (z_printed > 5.)

let test_montecarlo_estimates () =
  let model = silent_model 3e-4 in
  let est =
    Sim.Montecarlo.pattern_estimate ~replicas:500 ~seed:16 ~model ~power
      ~w:1000. ~sigma1:0.5 ~sigma2:1. ()
  in
  Alcotest.(check int) "replica count" 500 est.Sim.Montecarlo.time.Numerics.Stats.n;
  Alcotest.(check bool) "mean within min/max" true
    (est.Sim.Montecarlo.time.Numerics.Stats.min
     <= est.Sim.Montecarlo.time.Numerics.Stats.mean
    && est.Sim.Montecarlo.time.Numerics.Stats.mean
       <= est.Sim.Montecarlo.time.Numerics.Stats.max);
  check_raises_invalid "zero replicas" (fun () ->
      ignore
        (Sim.Montecarlo.pattern_estimate ~replicas:0 ~seed:1 ~model ~power
           ~w:1000. ~sigma1:1. ~sigma2:1. ()))

let test_application_estimate_matches_model () =
  (* Application-level: mean makespan ~ (T(W)/W) * W_base for a
     multi-pattern job. *)
  let model = silent_model 2e-4 in
  let w = 1000. and sigma1 = 0.5 and sigma2 = 1. and w_base = 10_000. in
  let est =
    Sim.Montecarlo.application_estimate ~replicas:1500 ~seed:17 ~model ~power
      ~w_base ~pattern_w:w ~sigma1 ~sigma2 ()
  in
  let expected =
    Core.Mixed.expected_time model ~w ~sigma1 ~sigma2 /. w *. w_base
  in
  let z =
    Float.abs (est.Sim.Montecarlo.time.Numerics.Stats.mean -. expected)
    /. est.Sim.Montecarlo.time.Numerics.Stats.std_error
  in
  Alcotest.(check bool) "makespan within 4 sigma" true (z < 4.)

let test_machine_power_accessor () =
  let machine = Sim.Machine.create power in
  Alcotest.(check bool) "the model handed to create" true
    (Sim.Machine.power machine == power)

let test_trace_segments_and_printers () =
  let b = Sim.Trace.builder () in
  Sim.Trace.record b ~at:0.
    (Sim.Trace.Compute { speed = 0.5; duration = 10.; work = 5. });
  Sim.Trace.record b ~at:10.
    (Sim.Trace.Verify { speed = 0.5; duration = 2.; passed = true });
  Sim.Trace.record b ~at:12. (Sim.Trace.Checkpoint { duration = 1. });
  let t = Sim.Trace.finish b in
  Alcotest.(check int) "segments, in order" 3
    (List.length (Sim.Trace.segments t));
  (match Sim.Trace.segments t with
  | Sim.Trace.Compute _ :: _ -> ()
  | _ -> Alcotest.fail "first segment must be the compute");
  let rendered = Format.asprintf "%a" Sim.Trace.pp t in
  Alcotest.(check bool) "trace printer non-empty" true
    (String.length rendered > 0);
  let seg =
    Format.asprintf "%a" Sim.Trace.pp_segment
      (Sim.Trace.Checkpoint { duration = 1. })
  in
  Alcotest.(check bool) "segment printer non-empty" true
    (String.length seg > 0)

let test_replicate_deterministic () =
  let draw rng = Prng.Rng.exponential rng ~rate:1e-3 in
  let a = Sim.Montecarlo.replicate ~replicas:8 ~seed:5 draw in
  let b = Sim.Montecarlo.replicate ~replicas:8 ~seed:5 draw in
  Alcotest.(check int) "one slot per replica" 8 (Array.length a);
  Alcotest.(check bool) "bit-identical across runs" true
    (Array.for_all2 Float.equal a b)

let () =
  Alcotest.run "sim"
    [
      ( "fault",
        [
          Alcotest.test_case "basics" `Quick test_fault_basic;
          Alcotest.test_case "zero rate" `Quick test_fault_zero_rate;
          Alcotest.test_case "empirical rate" `Slow test_fault_empirical_rate;
          Alcotest.test_case "scripted" `Quick test_fault_scripted;
          Alcotest.test_case "scripted exhaustion" `Quick
            test_fault_scripted_exhaustion;
        ] );
      ( "machine",
        [
          Alcotest.test_case "accounting" `Quick test_machine_accounting;
          Alcotest.test_case "power accessor" `Quick
            test_machine_power_accessor;
        ] );
      ( "trace",
        [
          Alcotest.test_case "builder" `Quick test_trace_builder;
          Alcotest.test_case "ill-formed detection" `Quick
            test_trace_ill_formed;
          Alcotest.test_case "segments and printers" `Quick
            test_trace_segments_and_printers;
        ] );
      ( "executor",
        [
          Alcotest.test_case "error-free pattern" `Quick
            test_error_free_pattern;
          Alcotest.test_case "re-executions at sigma2" `Quick
            test_reexecutions_at_sigma2;
          Alcotest.test_case "fail-stop semantics" `Quick
            test_failstop_cuts_attempt;
          Alcotest.test_case "determinism" `Quick test_pattern_determinism;
          Alcotest.test_case "application patterns" `Quick
            test_application_patterns;
          Alcotest.test_case "remainder pattern" `Quick
            test_application_remainder_pattern;
          Alcotest.test_case "scripted failure injection" `Quick
            test_scripted_failure_injection;
          Alcotest.test_case "scripted silent-only schedule" `Quick
            test_scripted_silent_only;
          Alcotest.test_case "scripted fail-stop mid-attempt" `Quick
            test_scripted_failstop_mid_attempt;
          Alcotest.test_case "scripted mixed application schedule" `Quick
            test_scripted_application_mixed;
          Alcotest.test_case "multi-verification pattern" `Quick
            test_multi_verification_pattern;
          Alcotest.test_case "multi-verification early detection" `Quick
            test_multi_verification_early_detection;
          Alcotest.test_case "scripted segment stream and phase spans" `Quick
            test_scripted_segment_stream;
        ] );
      ( "montecarlo",
        [
          Alcotest.test_case "matches Prop 2" `Slow
            test_montecarlo_matches_prop2;
          Alcotest.test_case "matches Prop 3" `Slow
            test_montecarlo_matches_prop3;
          Alcotest.test_case "matches mixed model" `Slow
            test_montecarlo_matches_mixed;
          Alcotest.test_case "refutes printed Prop 4" `Slow
            test_montecarlo_rejects_wrong_model;
          Alcotest.test_case "estimates" `Quick test_montecarlo_estimates;
          Alcotest.test_case "application estimate" `Slow
            test_application_estimate_matches_model;
          Alcotest.test_case "replicate deterministic" `Quick
            test_replicate_deterministic;
        ] );
    ]
