(* Tests for the multi-node platform simulator — including the
   superposition theorem that justifies the paper's aggregate-platform
   abstraction. *)

open Testutil

(* ------------------------------------------------------------------ *)
(* Platform simulator                                                  *)

let power = Core.Power.make ~kappa:1550. ~p_idle:60. ~p_io:5.2

let test_aggregate_model_rates () =
  let platform =
    Sim.Platform_sim.make ~nodes:16 ~node_lambda_f:1e-6 ~node_lambda_s:3e-6
      ~c:120. ~v:15. ()
  in
  let m = Sim.Platform_sim.aggregate_model platform in
  checkf "aggregate fail-stop rate" 1.6e-5 m.Core.Mixed.lambda_f;
  checkf "aggregate silent rate" 4.8e-5 m.Core.Mixed.lambda_s;
  checkf "r defaults to c" 120. platform.Sim.Platform_sim.r

let test_make_validation () =
  check_raises_invalid "zero nodes" (fun () ->
      Sim.Platform_sim.make ~nodes:0 ~node_lambda_f:1e-6 ~node_lambda_s:0.
        ~c:1. ~v:1. ());
  check_raises_invalid "no errors" (fun () ->
      Sim.Platform_sim.make ~nodes:4 ~node_lambda_f:0. ~node_lambda_s:0. ~c:1.
        ~v:1. ());
  check_raises_invalid "negative rate" (fun () ->
      Sim.Platform_sim.make ~nodes:4 ~node_lambda_f:(-1.) ~node_lambda_s:0.
        ~c:1. ~v:1. ())

let test_superposition_theorem () =
  (* The N-node platform's mean pattern time must match the aggregate
     Mixed model with rates N * node rate — the justification of the
     paper's "aggregated platform" abstraction. *)
  let platform =
    Sim.Platform_sim.make ~nodes:8 ~node_lambda_f:2e-5 ~node_lambda_s:5e-5
      ~c:100. ~r:50. ~v:20. ()
  in
  let model = Sim.Platform_sim.aggregate_model platform in
  let w = 2000. and sigma1 = 0.5 and sigma2 = 1. in
  let expected = Core.Mixed.expected_time model ~w ~sigma1 ~sigma2 in
  let expected_energy =
    Core.Mixed.expected_energy model power ~w ~sigma1 ~sigma2
  in
  let replicas = 4000 in
  let rngs = Prng.Rng.split (Prng.Rng.create ~seed:77) replicas in
  let times = Array.make replicas 0. in
  let energies = Array.make replicas 0. in
  Array.iteri
    (fun i rng ->
      let machine = Sim.Machine.create power in
      let o =
        Sim.Platform_sim.run_pattern platform ~machine ~rng ~w ~sigma1 ~sigma2
          ()
      in
      times.(i) <- o.Sim.Platform_sim.time;
      energies.(i) <- o.Sim.Platform_sim.energy)
    rngs;
  Alcotest.(check bool) "mean time matches the aggregate model" true
    (Numerics.Stats.within_confidence ~expected times);
  Alcotest.(check bool) "mean energy matches the aggregate model" true
    (Numerics.Stats.within_confidence ~expected:expected_energy energies)

let test_errors_spread_over_nodes () =
  (* Homogeneous nodes: decisive errors land roughly uniformly. *)
  let platform =
    Sim.Platform_sim.make ~nodes:4 ~node_lambda_f:5e-5 ~node_lambda_s:1e-4
      ~c:50. ~v:10. ()
  in
  let rng = Prng.Rng.create ~seed:13 in
  let o =
    Sim.Platform_sim.run_application platform ~power ~rng ~w_base:400_000.
      ~pattern_w:2000. ~sigma1:0.5 ~sigma2:1. ()
  in
  let total = Array.fold_left ( + ) 0 o.Sim.Platform_sim.errors_by_node in
  Alcotest.(check bool) "errors occurred" true (total > 100);
  let expected_share = float_of_int total /. 4. in
  Array.iteri
    (fun node count ->
      if
        Float.abs (float_of_int count -. expected_share)
        > 5. *. sqrt expected_share
      then
        Alcotest.failf "node %d saw %d errors, expected ~%.0f" node count
          expected_share)
    o.Sim.Platform_sim.errors_by_node

let test_platform_trace_well_formed () =
  let platform =
    Sim.Platform_sim.make ~nodes:3 ~node_lambda_f:1e-4 ~node_lambda_s:2e-4
      ~c:30. ~v:5. ()
  in
  let machine = Sim.Machine.create power in
  let rng = Prng.Rng.create ~seed:14 in
  let trace = Sim.Trace.builder () in
  let o =
    Sim.Platform_sim.run_pattern ~trace platform ~machine ~rng ~w:3000.
      ~sigma1:0.5 ~sigma2:1. ()
  in
  Alcotest.(check bool) "well-formed trace" true
    (Sim.Trace.is_well_formed (Sim.Trace.finish trace));
  Alcotest.(check bool) "time positive" true (o.Sim.Platform_sim.time > 0.)

let test_single_node_equals_aggregate_executor_stats () =
  (* N = 1: the platform simulator and the aggregate executor share the
     same distribution; compare their means over independent streams. *)
  let platform =
    Sim.Platform_sim.make ~nodes:1 ~node_lambda_f:1e-4 ~node_lambda_s:2e-4
      ~c:60. ~v:12. ()
  in
  let model = Sim.Platform_sim.aggregate_model platform in
  let w = 1500. and sigma1 = 0.6 and sigma2 = 0.9 in
  let replicas = 3000 in
  let mean_of run =
    let rngs = Prng.Rng.split (Prng.Rng.create ~seed:15) replicas in
    let samples = Array.map run rngs in
    Numerics.Stats.mean samples
  in
  let platform_mean =
    mean_of (fun rng ->
        let machine = Sim.Machine.create power in
        (Sim.Platform_sim.run_pattern platform ~machine ~rng ~w ~sigma1
           ~sigma2 ())
          .Sim.Platform_sim.time)
  in
  let executor_mean =
    mean_of (fun rng ->
        let machine = Sim.Machine.create power in
        (Sim.Executor.run_pattern ~model ~machine ~rng ~w ~sigma1 ~sigma2 ())
          .Sim.Executor.time)
  in
  let analytic = Core.Mixed.expected_time model ~w ~sigma1 ~sigma2 in
  check_close ~rtol:0.05 "platform vs analytic" analytic platform_mean;
  check_close ~rtol:0.05 "executor vs analytic" analytic executor_mean

(* Whole applications, pinned bit for bit: 40 seeds on three
   platforms (many nodes, a few uneven ones, a thousand), every outcome
   rendered with its time and energy in [%h] and all its counts. Any
   change to the order of the draws, to which arrival settles an
   attempt or to which node an error is charged shows here. *)
let test_application_outcomes_pinned () =
  let platforms =
    [
      ( "64 homogeneous",
        Sim.Platform_sim.make ~nodes:64 ~node_lambda_f:2e-6
          ~node_lambda_s:4e-6 ~c:300. ~v:15.4 (),
        "2a94739e534b196e29ab56b17ba86ac1",
        (973, 451, 522) );
      ( "5 heterogeneous",
        Sim.Platform_sim.heterogeneous
          ~node_lambda_f:[| 1e-5; 0.; 3e-5; 2e-6; 0. |]
          ~node_lambda_s:[| 2e-5; 5e-5; 0.; 1e-6; 4e-5 |]
          ~c:300. ~r:150. ~v:15.4 (),
        "227603fb83b9a51a05c4ef38fca7e26a",
        (322, 204, 118) );
      ( "1024 nodes",
        Sim.Platform_sim.make ~nodes:1024 ~node_lambda_f:1e-7
          ~node_lambda_s:2e-7 ~c:300. ~v:15.4 (),
        "2e55e4838f947c11ac84cc655c1bcaff",
        (711, 357, 354) );
    ]
  in
  let render (o : Sim.Platform_sim.outcome) =
    Printf.sprintf "%h %h %d %d %d %s" o.time o.energy o.re_executions
      o.silent_errors o.fail_stop_errors
      (String.concat ","
         (Array.to_list (Array.map string_of_int o.errors_by_node)))
  in
  List.iter
    (fun (name, platform, digest, totals) ->
      let outcomes =
        List.init 40 (fun i ->
            Sim.Platform_sim.run_application platform ~power
              ~rng:(Prng.Rng.create ~seed:(i + 1))
              ~w_base:20_000. ~pattern_w:2764. ~sigma1:0.4 ~sigma2:0.8 ())
      in
      let total f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
      Alcotest.(check (triple int int int))
        (name ^ ": re-executions, silent, fail-stop") totals
        ( total (fun o -> o.Sim.Platform_sim.re_executions),
          total (fun o -> o.Sim.Platform_sim.silent_errors),
          total (fun o -> o.Sim.Platform_sim.fail_stop_errors) );
      Alcotest.(check string) (name ^ ": outcome digest") digest
        (Digest.to_hex
           (Digest.string (String.concat "\n" (List.map render outcomes)))))
    platforms

(* ------------------------------------------------------------------ *)
(* Heterogeneous platforms                                             *)

let test_heterogeneous_validation () =
  check_raises_invalid "length mismatch" (fun () ->
      Sim.Platform_sim.heterogeneous ~node_lambda_f:[| 1e-5 |]
        ~node_lambda_s:[| 1e-5; 1e-5 |] ~c:1. ~v:1. ());
  check_raises_invalid "empty" (fun () ->
      Sim.Platform_sim.heterogeneous ~node_lambda_f:[||] ~node_lambda_s:[||]
        ~c:1. ~v:1. ());
  check_raises_invalid "all zero" (fun () ->
      Sim.Platform_sim.heterogeneous ~node_lambda_f:[| 0. |]
        ~node_lambda_s:[| 0. |] ~c:1. ~v:1. ());
  (* The constructor copies its inputs: later mutation is invisible. *)
  let rates = [| 1e-5; 2e-5 |] in
  let platform =
    Sim.Platform_sim.heterogeneous ~node_lambda_f:rates
      ~node_lambda_s:[| 0.; 0. |] ~c:1. ~v:1. ()
  in
  rates.(0) <- 99.;
  checkf "defensive copy" 1e-5 platform.Sim.Platform_sim.node_lambda_f.(0)

let test_heterogeneous_aggregate () =
  let platform =
    Sim.Platform_sim.heterogeneous
      ~node_lambda_f:[| 1e-5; 0.; 3e-5 |]
      ~node_lambda_s:[| 2e-5; 5e-5; 0. |]
      ~c:100. ~v:10. ()
  in
  Alcotest.(check int) "three nodes" 3 (Sim.Platform_sim.nodes platform);
  let m = Sim.Platform_sim.aggregate_model platform in
  checkf "summed fail-stop" 4e-5 m.Core.Mixed.lambda_f;
  checkf "summed silent" 7e-5 m.Core.Mixed.lambda_s

let test_platform_trace_analytics () =
  (* The Analysis breakdown composes with platform traces: buckets
     partition the makespan and completed work equals w_base. *)
  let platform =
    Sim.Platform_sim.make ~nodes:6 ~node_lambda_f:3e-5 ~node_lambda_s:6e-5
      ~c:40. ~r:20. ~v:8. ()
  in
  let rng = Prng.Rng.create ~seed:25 in
  let machine = Sim.Machine.create power in
  let trace = Sim.Trace.builder () in
  let total_time = ref 0. in
  let remaining = ref 30_000. in
  while !remaining > 0. do
    let w = Float.min !remaining 2000. in
    let o =
      Sim.Platform_sim.run_pattern ~trace platform ~machine ~rng ~w
        ~sigma1:0.5 ~sigma2:1. ()
    in
    total_time := !total_time +. o.Sim.Platform_sim.time;
    remaining := !remaining -. w
  done;
  let b = Sim.Analysis.breakdown (Sim.Trace.finish trace) in
  check_close ~rtol:1e-9 "buckets partition the time" !total_time
    (Sim.Analysis.total_time b);
  check_close ~rtol:1e-9 "completed work" 30_000.
    b.Sim.Analysis.completed_work;
  Alcotest.(check int) "15 patterns" 15 b.Sim.Analysis.successful_patterns

let test_flaky_node_attribution () =
  (* One node 20x flakier than the rest: it must absorb the bulk of
     the decisive errors, and the aggregate model must still predict
     the mean pattern time. *)
  let base = 2e-5 in
  let platform =
    Sim.Platform_sim.heterogeneous
      ~node_lambda_f:[| 0.; 0.; 0.; 0. |]
      ~node_lambda_s:[| base; base; 20. *. base; base |]
      ~c:60. ~v:10. ()
  in
  let rng = Prng.Rng.create ~seed:19 in
  let o =
    Sim.Platform_sim.run_application platform ~power ~rng ~w_base:600_000.
      ~pattern_w:3000. ~sigma1:0.5 ~sigma2:1. ()
  in
  let total = Array.fold_left ( + ) 0 o.Sim.Platform_sim.errors_by_node in
  Alcotest.(check bool) "errors occurred" true (total > 50);
  let flaky_share =
    float_of_int o.Sim.Platform_sim.errors_by_node.(2) /. float_of_int total
  in
  (* Expected share 20/23 = 0.87. *)
  Alcotest.(check bool)
    (Printf.sprintf "flaky node dominates (share %.2f)" flaky_share)
    true
    (flaky_share > 0.75 && flaky_share < 0.95);
  (* Aggregate mean check on a single pattern. *)
  let model = Sim.Platform_sim.aggregate_model platform in
  let expected = Core.Mixed.expected_time model ~w:3000. ~sigma1:0.5 ~sigma2:1. in
  let replicas = 3000 in
  let rngs = Prng.Rng.split (Prng.Rng.create ~seed:20) replicas in
  let samples =
    Array.map
      (fun rng ->
        let machine = Sim.Machine.create power in
        (Sim.Platform_sim.run_pattern platform ~machine ~rng ~w:3000.
           ~sigma1:0.5 ~sigma2:1. ())
          .Sim.Platform_sim.time)
      rngs
  in
  Alcotest.(check bool) "heterogeneous superposition" true
    (Numerics.Stats.within_confidence ~expected samples)

let () =
  Alcotest.run "platform-sim"
    [
      ( "platform",
        [
          Alcotest.test_case "aggregate rates" `Quick
            test_aggregate_model_rates;
          Alcotest.test_case "validation" `Quick test_make_validation;
          Alcotest.test_case "superposition theorem" `Slow
            test_superposition_theorem;
          Alcotest.test_case "errors spread over nodes" `Slow
            test_errors_spread_over_nodes;
          Alcotest.test_case "well-formed trace" `Quick
            test_platform_trace_well_formed;
          Alcotest.test_case "single node equals executor" `Slow
            test_single_node_equals_aggregate_executor_stats;
          Alcotest.test_case "application outcomes pinned" `Quick
            test_application_outcomes_pinned;
        ] );
      ( "heterogeneous",
        [
          Alcotest.test_case "validation" `Quick
            test_heterogeneous_validation;
          Alcotest.test_case "aggregate rates" `Quick
            test_heterogeneous_aggregate;
          Alcotest.test_case "flaky node attribution" `Slow
            test_flaky_node_attribution;
          Alcotest.test_case "trace analytics" `Quick
            test_platform_trace_analytics;
        ] );
    ]
