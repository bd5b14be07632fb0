(* Tests for the deterministic multicore engine: the pool combinators
   must equal their sequential counterparts element for element, and
   the parallelized hot paths (Monte-Carlo replication, 2-D grid
   sweeps, frontier sweeps, large BiCrit pair enumerations) must be
   bit-identical for 1, 2 and 4 domains with a fixed seed. *)

let pools = List.map (fun d -> Parallel.Pool.create ~domains:d) [ 1; 2; 4 ]

(* Structural float equality that treats nan as equal to itself —
   "bit-identical" for the arrays the sweep layers produce. *)
let float_eq a b = a = b || (Float.is_nan a && Float.is_nan b)

let rows_eq = List.equal (fun a b -> Array.for_all2 float_eq a b)

let check_rows msg reference rows =
  if not (rows_eq reference rows) then Alcotest.failf "%s: rows differ" msg

(* ------------------------------------------------------------------ *)
(* Pool combinators                                                    *)

let test_map_array_matches_sequential () =
  List.iter
    (fun n ->
      let input = Array.init n (fun i -> float_of_int (i * i) +. 0.5) in
      let f x = (Float.sin x *. 1e6) +. x in
      let expected = Array.map f input in
      List.iter
        (fun pool ->
          let got = Parallel.Pool.map_array pool f input in
          if not (Array.for_all2 float_eq expected got) then
            Alcotest.failf "n=%d domains=%d: map_array differs" n
              (Parallel.Pool.domains pool))
        pools)
    [ 0; 1; 2; 3; 7; 64; 1000 ]

let test_map_array_explicit_chunk () =
  let input = Array.init 37 string_of_int in
  List.iter
    (fun chunk ->
      List.iter
        (fun pool ->
          Alcotest.(check (array string))
            (Printf.sprintf "chunk=%d" chunk)
            (Array.map (fun s -> s ^ "!") input)
            (Parallel.Pool.map_array ~chunk pool (fun s -> s ^ "!") input))
        pools)
    [ 1; 2; 5; 36; 37; 100 ]

let test_init_and_list () =
  List.iter
    (fun pool ->
      Alcotest.(check (array int))
        "init_array" (Array.init 100 succ)
        (Parallel.Pool.init_array pool 100 succ);
      Alcotest.(check (list int))
        "map_list"
        (List.map succ [ 3; 1; 4; 1; 5; 9; 2; 6 ])
        (Parallel.Pool.map_list pool succ [ 3; 1; 4; 1; 5; 9; 2; 6 ]))
    pools

let test_map_reduce_ordered () =
  (* The reduction must be the sequential left fold in index order,
     so a non-commutative reduce is a sharp probe. *)
  let input = Array.init 257 (fun i -> float_of_int (i + 1)) in
  let map x = 1. /. x in
  let reduce acc x = (acc *. 0.999) +. x in
  let expected = Array.fold_left reduce 0. (Array.map map input) in
  List.iter
    (fun pool ->
      let got =
        Parallel.Pool.map_reduce pool ~map ~reduce ~init:0. input
      in
      if not (float_eq expected got) then
        Alcotest.failf "domains=%d: map_reduce differs: %.17g vs %.17g"
          (Parallel.Pool.domains pool) expected got)
    pools

let test_exhausted_tasks_reported () =
  (* A permanently failing task no longer aborts the region: the
     region completes, then raises [Tasks_failed] with one report per
     exhausted task, sorted by index — identically for every domain
     count. *)
  List.iter
    (fun pool ->
      match
        (* The escaping Failure is the mechanism under test: the pool
           must exhaust the attempt budget and convert the user
           exception into per-task failure reports. *)
        (* rexspeed-lint: allow RX014 *)
        Parallel.Pool.init_array ~attempts:3 pool 1000 (fun i ->
            if i = 997 || i = 3 then failwith "boom" else i)
      with
      | exception Parallel.Pool.Tasks_failed failures ->
          Alcotest.(check (list int))
            "failed indices, ascending" [ 3; 997 ]
            (List.map (fun f -> f.Parallel.Pool.index) failures);
          List.iter
            (fun (f : Parallel.Pool.failure) ->
              Alcotest.(check int) "attempts exhausted" 3 f.attempts;
              Alcotest.(check bool)
                "error mentions the exception" true
                (Astring_contains.contains f.error "boom"))
            failures
      | _ -> Alcotest.fail "expected Tasks_failed")
    pools

let with_injector injector f =
  Parallel.Pool.set_fault_injector (Some injector);
  Fun.protect ~finally:(fun () -> Parallel.Pool.set_fault_injector None) f

let test_injected_faults_retried () =
  (* Inject failures on the first two attempts of every 7th task: with
     the default attempt budget each retried task succeeds on attempt
     3, the result is exactly [Array.init n succ], and — because the
     injector fires before the task body — each body runs once. *)
  let n = 100 in
  with_injector
    (fun ~index ~attempt -> index mod 7 = 0 && attempt <= 2)
    (fun () ->
      List.iter
        (fun pool ->
          let body_runs = Array.init n (fun _ -> Atomic.make 0) in
          let got =
            Parallel.Pool.init_array pool n (fun i ->
                Atomic.incr body_runs.(i);
                i + 1)
          in
          Alcotest.(check (array int)) "values" (Array.init n succ) got;
          Array.iteri
            (fun i c ->
              Alcotest.(check int)
                (Printf.sprintf "task %d body runs once" i)
                1 (Atomic.get c))
            body_runs)
        pools)

let test_injected_faults_exhaust () =
  (* An injector that always fires for one index exhausts that task's
     budget; the report carries the attempt bound and the injected
     fault's description. *)
  with_injector
    (fun ~index ~attempt:_ -> index = 5)
    (fun () ->
      List.iter
        (fun pool ->
          match Parallel.Pool.init_array ~attempts:4 pool 10 succ with
          | exception Parallel.Pool.Tasks_failed [ f ] ->
              Alcotest.(check int) "index" 5 f.Parallel.Pool.index;
              Alcotest.(check int) "attempts" 4 f.Parallel.Pool.attempts;
              Alcotest.(check bool)
                "injected fault named" true
                (Astring_contains.contains f.Parallel.Pool.error
                   "Injected_fault")
          | _ -> Alcotest.fail "expected Tasks_failed with one report")
        pools)

let test_attempts_one_disables_retry () =
  with_injector
    (fun ~index ~attempt -> index = 2 && attempt = 1)
    (fun () ->
      List.iter
        (fun pool ->
          (* One attempt: the injected first-attempt failure is final. *)
          (match Parallel.Pool.init_array ~attempts:1 pool 5 succ with
          | exception Parallel.Pool.Tasks_failed [ f ] ->
              Alcotest.(check int) "index" 2 f.Parallel.Pool.index
          | _ -> Alcotest.fail "expected Tasks_failed");
          (* Two attempts: the retry recovers the same region. *)
          Alcotest.(check (array int))
            "recovered with a second attempt" (Array.init 5 succ)
            (Parallel.Pool.init_array ~attempts:2 pool 5 succ))
        pools)

(* ------------------------------------------------------------------ *)
(* Worker supervision                                                  *)

let with_domain_injector injector f =
  Parallel.Pool.set_domain_fault_injector (Some injector);
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.set_domain_fault_injector None)
    f

let test_supervisor_restart_identity () =
  (* A worker that dies mid-region abandons the rest of its claimed
     chunk; the supervisor must restart it and re-execute the
     abandoned slots so the result is byte-identical to an unfaulted
     run for 1, 2 and 4 domains. *)
  let n = 200 in
  let f i = Float.sin (float_of_int i) *. 1e6 in
  let reference = Array.init n f in
  with_domain_injector
    (fun ~index ~round -> round = 0 && index mod 17 = 0)
    (fun () ->
      List.iter
        (fun pool ->
          let before = Parallel.Pool.worker_restarts () in
          let got = Parallel.Pool.init_array pool n f in
          if not (Array.for_all2 float_eq reference got) then
            Alcotest.failf "domains=%d: supervised run differs"
              (Parallel.Pool.domains pool);
          Alcotest.(check bool)
            (Printf.sprintf "domains=%d: restart counted"
               (Parallel.Pool.domains pool))
            true
            (Parallel.Pool.worker_restarts () > before))
        pools)

let test_supervisor_rounds_exhaust () =
  (* A domain fault that fires on one index in every round can never
     be recovered; after [max_recovery_rounds] the slot is reported as
     failed with the round budget in the error, and every other slot
     still completes. The kill sits on the last index so the abandoned
     remainder of the dying worker's chunk is empty — the failure set
     is then identical for every domain count, including the
     sequential whole-array chunk. *)
  with_domain_injector
    (fun ~index ~round:_ -> index = 19)
    (fun () ->
      List.iter
        (fun pool ->
          match Parallel.Pool.init_array pool 20 succ with
          | exception Parallel.Pool.Tasks_failed [ f ] ->
              Alcotest.(check int) "index" 19 f.Parallel.Pool.index;
              Alcotest.(check bool)
                "error names the exhausted round budget" true
                (Astring_contains.contains f.Parallel.Pool.error
                   (string_of_int Parallel.Pool.max_recovery_rounds))
          | _ -> Alcotest.fail "expected Tasks_failed with one report")
        pools)

let test_supervisor_interacts_with_retries () =
  (* Task-level faults (retried in place) and domain deaths (recovered
     by the supervisor) compose: the same region survives both and the
     values are still exact. *)
  with_injector
    (fun ~index ~attempt -> index mod 5 = 0 && attempt = 1)
    (fun () ->
      with_domain_injector
        (fun ~index ~round -> round = 0 && index = 13)
        (fun () ->
          List.iter
            (fun pool ->
              Alcotest.(check (array int))
                (Printf.sprintf "domains=%d" (Parallel.Pool.domains pool))
                (Array.init 50 succ)
                (Parallel.Pool.init_array pool 50 succ))
            pools))

let test_nested_regions_degrade () =
  (* A pool call from inside a worker must run sequentially (bounded
     domain count) and still produce the right answer. *)
  let pool = Parallel.Pool.create ~domains:4 in
  let got =
    Parallel.Pool.init_array pool 16 (fun i ->
        (* Convert an inner-region failure into a sentinel instead of
           letting Tasks_failed/Invalid_argument escape the outer task:
           a deterministic inner failure would otherwise burn the outer
           attempt budget re-running all 16 inner tasks per retry, and
           the test would die with an opaque nested exception instead
           of a readable array diff (RX014). *)
        match Parallel.Pool.init_array pool 16 (fun j -> (16 * i) + j) with
        | inner -> Array.fold_left ( + ) 0 inner
        | exception (Parallel.Pool.Tasks_failed _ | Invalid_argument _) ->
            min_int)
  in
  let expected =
    Array.init 16 (fun i ->
        Array.fold_left ( + ) 0 (Array.init 16 (fun j -> (16 * i) + j)))
  in
  Alcotest.(check (array int)) "nested result" expected got

let test_validation () =
  (match Parallel.Pool.create ~domains:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "domains = 0 must raise");
  (match Parallel.Pool.init_array Parallel.Pool.sequential (-1) succ with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative length must raise");
  match
    Parallel.Pool.init_array ~chunk:0 (Parallel.Pool.create ~domains:2) 4 succ
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "chunk = 0 must raise"

let test_region_allocation () =
  (* A fault-free region allocates its result and a small constant:
     no closure, retry bookkeeping or index array per task. *)
  let pool = Parallel.Pool.sequential in
  let region n () =
    ignore (Parallel.Pool.init_array pool n Fun.id : int array)
  in
  region 2 ();
  let small = Testutil.minor_words (region 2) in
  if small > 80. then
    Alcotest.failf "2-task region allocated %.0f words (bound 80)" small;
  region 1000 ();
  let per_task = Testutil.minor_words (region 1000) /. 1000. in
  if per_task > 16. then
    Alcotest.failf "1000-task region allocated %.1f words per task (bound 16)"
      per_task

(* ------------------------------------------------------------------ *)
(* Determinism of the parallelized hot paths                           *)

let hera () =
  Core.Env.of_config (Option.get (Platforms.Config.find "hera/xscale"))

let test_montecarlo_bit_identical () =
  let model =
    Core.Mixed.make ~c:120. ~r:60. ~v:20. ~lambda_f:1e-4 ~lambda_s:2e-4 ()
  in
  let power = Core.Power.make ~kappa:1000. ~p_idle:50. ~p_io:20. in
  let estimate pool =
    Sim.Montecarlo.pattern_estimate ~pool ~replicas:2000 ~seed:2016 ~model
      ~power ~w:3000. ~sigma1:0.5 ~sigma2:1. ()
  in
  let reference = estimate Parallel.Pool.sequential in
  List.iter
    (fun pool ->
      let est = estimate pool in
      (* Record equality: every float must match to the last bit. *)
      if est <> reference then
        Alcotest.failf "domains=%d: pattern_estimate differs"
          (Parallel.Pool.domains pool))
    pools;
  let checks pool =
    Sim.Montecarlo.checks ~pool ~replicas:1000 ~seed:7 ~model ~power ~w:3000.
      ~sigma1:0.5 ~sigma2:1. ()
  in
  let reference = checks Parallel.Pool.sequential in
  List.iter
    (fun pool ->
      if checks pool <> reference then
        Alcotest.failf "domains=%d: checks differ"
          (Parallel.Pool.domains pool))
    pools

let test_grid2d_bit_identical () =
  let env = hera () in
  let grid pool =
    Sweep.Grid2d.run ~label:"det" ~pool ~env ~rho:3.
      ~x:(Sweep.Parameter.C, [ 100.; 500.; 1000.; 2000.; 4000. ])
      ~y:(Sweep.Parameter.Lambda, [ 1e-6; 1e-5; 1e-4 ])
      ()
  in
  let reference = grid Parallel.Pool.sequential in
  let reference_rows = Sweep.Grid2d.to_rows reference in
  let reference_heatmap =
    Sweep.Grid2d.render_heatmap ~value:Sweep.Grid2d.saving reference
  in
  List.iter
    (fun pool ->
      let g = grid pool in
      check_rows
        (Printf.sprintf "domains=%d" (Parallel.Pool.domains pool))
        reference_rows (Sweep.Grid2d.to_rows g);
      Alcotest.(check string)
        "heatmap identical" reference_heatmap
        (Sweep.Grid2d.render_heatmap ~value:Sweep.Grid2d.saving g))
    pools

let test_frontier_bit_identical () =
  let env = hera () in
  let frontier pool = Sweep.Frontier.compute ~pool env in
  let reference = Sweep.Frontier.to_rows (frontier Parallel.Pool.sequential) in
  List.iter
    (fun pool ->
      check_rows
        (Printf.sprintf "domains=%d" (Parallel.Pool.domains pool))
        reference
        (Sweep.Frontier.to_rows (frontier pool)))
    pools

let test_bicrit_large_ladder_bit_identical () =
  (* A synthetic 16-speed ladder: 256 pairs, above the parallel
     threshold, so the enumeration actually fans out. *)
  let env = hera () in
  let speeds = List.init 16 (fun i -> 0.15 +. (0.05 *. float_of_int i)) in
  let big =
    Core.Env.make ~params:env.Core.Env.params ~power:env.Core.Env.power
      ~speeds
  in
  let solve pool = Core.Bicrit.solve ~pool big ~rho:2.5 in
  match solve Parallel.Pool.sequential with
  | None -> Alcotest.fail "expected a feasible ladder"
  | Some reference ->
      List.iter
        (fun pool ->
          match solve pool with
          | None -> Alcotest.fail "parallel solve infeasible"
          | Some r ->
              if r.Core.Bicrit.best <> reference.Core.Bicrit.best then
                Alcotest.failf "domains=%d: best differs"
                  (Parallel.Pool.domains pool);
              if r.Core.Bicrit.candidates <> reference.Core.Bicrit.candidates
              then
                Alcotest.failf "domains=%d: candidate order differs"
                  (Parallel.Pool.domains pool))
        pools

(* ------------------------------------------------------------------ *)
(* Defaults                                                            *)

let test_default_domain_count () =
  Alcotest.(check bool)
    "at least one" true
    (Parallel.Pool.default_domain_count () >= 1);
  Parallel.Pool.set_default 3;
  Alcotest.(check int) "override wins" 3
    (Parallel.Pool.domains (Parallel.Pool.default ()));
  Parallel.Pool.set_default 0;
  Alcotest.(check int) "clamped to 1" 1
    (Parallel.Pool.domains (Parallel.Pool.default ()))

let test_retry_budget () =
  Alcotest.(check int) "default bound" 10 Parallel.Pool.default_max_attempts;
  Parallel.Pool.set_max_attempts 3;
  Alcotest.(check int) "override in force" 3 (Parallel.Pool.max_attempts ());
  Parallel.Pool.set_max_attempts Parallel.Pool.default_max_attempts;
  Alcotest.(check int) "back to the default"
    Parallel.Pool.default_max_attempts
    (Parallel.Pool.max_attempts ())

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map_array = Array.map" `Quick
            test_map_array_matches_sequential;
          Alcotest.test_case "explicit chunking" `Quick
            test_map_array_explicit_chunk;
          Alcotest.test_case "init_array and map_list" `Quick
            test_init_and_list;
          Alcotest.test_case "map_reduce ordered fold" `Quick
            test_map_reduce_ordered;
          Alcotest.test_case "exhausted tasks reported" `Quick
            test_exhausted_tasks_reported;
          Alcotest.test_case "injected faults retried" `Quick
            test_injected_faults_retried;
          Alcotest.test_case "injected faults exhaust" `Quick
            test_injected_faults_exhaust;
          Alcotest.test_case "attempts=1 disables retry" `Quick
            test_attempts_one_disables_retry;
          Alcotest.test_case "nested regions degrade" `Quick
            test_nested_regions_degrade;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "region allocation" `Quick test_region_allocation;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "restart recovers bit-identically" `Quick
            test_supervisor_restart_identity;
          Alcotest.test_case "recovery rounds exhaust" `Quick
            test_supervisor_rounds_exhaust;
          Alcotest.test_case "composes with task retries" `Quick
            test_supervisor_interacts_with_retries;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "Monte-Carlo bit-identical" `Quick
            test_montecarlo_bit_identical;
          Alcotest.test_case "Grid2d bit-identical" `Quick
            test_grid2d_bit_identical;
          Alcotest.test_case "Frontier bit-identical" `Quick
            test_frontier_bit_identical;
          Alcotest.test_case "BiCrit 256-pair ladder" `Quick
            test_bicrit_large_ladder_bit_identical;
        ] );
      ( "defaults",
        [
          Alcotest.test_case "domain count" `Quick test_default_domain_count;
          Alcotest.test_case "retry budget" `Quick test_retry_budget;
        ] );
    ]
