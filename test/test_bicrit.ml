(* Tests for Core.Bicrit — the O(K^2) bi-criteria solver. *)

open Testutil

let env = hera_xscale ()

let test_solve_paper_optimum () =
  match Core.Bicrit.solve env ~rho:3. with
  | None -> Alcotest.fail "rho = 3 must be feasible on Hera/XScale"
  | Some { best; candidates } ->
      checkf "best sigma1" 0.4 best.Core.Optimum.sigma1;
      checkf "best sigma2" 0.4 best.Core.Optimum.sigma2;
      check_close ~rtol:1e-3 "best Wopt" 2764. best.Core.Optimum.w_opt;
      (* 0.15 is infeasible at rho = 3: 5 speeds x 5 - 5 pairs lost. *)
      Alcotest.(check int) "feasible candidates" 20 (List.length candidates)

let test_best_is_argmin () =
  match Core.Bicrit.solve env ~rho:3. with
  | None -> Alcotest.fail "expected a solution"
  | Some { best; candidates } ->
      List.iter
        (fun (s : Core.Optimum.solution) ->
          if s.energy_overhead < best.Core.Optimum.energy_overhead then
            Alcotest.failf "candidate (%g, %g) beats the reported best"
              s.sigma1 s.sigma2)
        candidates

let test_single_speed_mode () =
  match Core.Bicrit.solve ~mode:Core.Bicrit.Single_speed env ~rho:3. with
  | None -> Alcotest.fail "expected a solution"
  | Some { best; candidates } ->
      List.iter
        (fun (s : Core.Optimum.solution) ->
          checkf "sigma1 = sigma2" s.sigma1 s.sigma2)
        candidates;
      checkf "best single speed" 0.4 best.Core.Optimum.sigma1

let test_infeasible_rho () =
  let min_rho = Core.Bicrit.min_feasible_rho env in
  Alcotest.(check bool) "min rho above 1" true (min_rho > 1.);
  Alcotest.(check bool) "below min rho" true
    (Core.Bicrit.solve env ~rho:(min_rho *. 0.999) = None);
  Alcotest.(check bool) "above min rho" true
    (Option.is_some (Core.Bicrit.solve env ~rho:(min_rho *. 1.001)))

let test_best_second_speed_rows () =
  (* The rho = 1.775 table: per-sigma1 best second speeds. *)
  let best sigma1 =
    Option.map
      (fun (s : Core.Optimum.solution) -> s.sigma2)
      (Core.Bicrit.best_second_speed env ~rho:1.775 ~sigma1)
  in
  Alcotest.(check (option (float 1e-9))) "0.15 infeasible" None (best 0.15);
  Alcotest.(check (option (float 1e-9))) "0.4 infeasible" None (best 0.4);
  Alcotest.(check (option (float 1e-9))) "0.6 -> 0.8" (Some 0.8) (best 0.6);
  Alcotest.(check (option (float 1e-9))) "0.8 -> 0.4" (Some 0.4) (best 0.8);
  Alcotest.(check (option (float 1e-9))) "1.0 -> 0.4" (Some 0.4) (best 1.)

let test_rho_validation () =
  check_raises_invalid "rho = 0" (fun () -> Core.Bicrit.solve env ~rho:0.);
  check_raises_invalid "negative rho" (fun () ->
      Core.Bicrit.best_second_speed env ~rho:(-1.) ~sigma1:0.4);
  List.iter
    (fun (name, rho) ->
      check_raises_invalid ("solve, rho = " ^ name) (fun () ->
          Core.Bicrit.solve env ~rho);
      check_raises_invalid ("single-speed solve, rho = " ^ name) (fun () ->
          Core.Bicrit.solve ~mode:Core.Bicrit.Single_speed env ~rho);
      check_raises_invalid ("best_second_speed, rho = " ^ name) (fun () ->
          Core.Bicrit.best_second_speed env ~rho ~sigma1:0.4))
    [ ("infinity", infinity); ("nan", nan) ]

let all_envs =
  List.map (fun c -> Core.Env.of_config c) Platforms.Config.all

let test_candidates_match_pairwise () =
  (* The solver's candidates are exactly Theorem 1 applied to every
     pair of the paper's enumeration, infeasible pairs dropped, in
     that order and to the last bit. *)
  List.iter
    (fun (env : Core.Env.t) ->
      let rho_floor = Core.Bicrit.min_feasible_rho env in
      let rhos =
        [ Float.pred rho_floor; rho_floor; Float.succ rho_floor ]
        @ List.map
            (fun factor -> rho_floor *. factor)
            [ 0.5; 1.0001; 1.01; 1.1; 1.3; 1.6; 2.; 3.; 5. ]
        @ [ 1.775; 3.; 8. ]
      in
      List.iter
        (fun rho ->
          List.iter
            (fun (mode, pairs) ->
              let expected =
                List.filter_map
                  (fun (sigma1, sigma2) ->
                    Core.Optimum.solve_pair env.params env.power ~rho ~sigma1
                      ~sigma2)
                  pairs
              in
              let got =
                match Core.Bicrit.solve ~mode env ~rho with
                | None -> []
                | Some r -> r.Core.Bicrit.candidates
              in
              if not (List.equal same_solution expected got) then
                Alcotest.failf "%a rho=%h: candidates differ (%d vs %d)"
                  Core.Env.pp env rho (List.length expected)
                  (List.length got))
            [
              (Core.Bicrit.Two_speeds, Core.Env.speed_pairs env);
              ( Core.Bicrit.Single_speed,
                Array.to_list (Array.map (fun s -> (s, s)) env.speeds) );
            ])
        rhos)
    all_envs

let test_solve_allocation () =
  (* A two-speed solve on the paper's 5-speed ladder: 25 Theorem-1
     kernels, each in its own pool task. What it allocates is the
     candidates and little else. *)
  let solve () =
    ignore (Core.Bicrit.solve env ~rho:3. : Core.Bicrit.result option)
  in
  solve ();
  let words = minor_words solve in
  if words > 2000. then
    Alcotest.failf "two-speed solve allocated %.0f words (bound 2000)" words

let prop_two_speeds_never_lose =
  (* The single-speed solution space is a subset of the two-speed one,
     so the saving is always >= 0 — on every configuration. *)
  QCheck.Test.make ~count:100 ~name:"two speeds never lose to one"
    QCheck.(
      pair (int_range 0 7) (float_range 1.3 10.))
    (fun (config_index, rho) ->
      let env = List.nth all_envs config_index in
      match Core.Bicrit.energy_saving_vs_single env ~rho with
      | None -> true (* jointly infeasible: nothing to compare *)
      | Some saving -> saving >= -1e-12)

let prop_relaxing_rho_never_hurts =
  QCheck.Test.make ~count:100 ~name:"larger rho never increases energy"
    QCheck.(pair (int_range 0 7) (float_range 1.3 8.))
    (fun (config_index, rho) ->
      let env = List.nth all_envs config_index in
      match (Core.Bicrit.solve env ~rho, Core.Bicrit.solve env ~rho:(rho *. 1.5)) with
      | Some tight, Some loose ->
          loose.Core.Bicrit.best.Core.Optimum.energy_overhead
          <= tight.Core.Bicrit.best.Core.Optimum.energy_overhead +. 1e-9
      | None, _ -> true
      | Some _, None -> false)

let prop_candidates_meet_bound =
  QCheck.Test.make ~count:100 ~name:"all candidates satisfy the bound"
    QCheck.(pair (int_range 0 7) (float_range 1.3 10.))
    (fun (config_index, rho) ->
      let env = List.nth all_envs config_index in
      match Core.Bicrit.solve env ~rho with
      | None -> true
      | Some { candidates; _ } ->
          List.for_all
            (fun (s : Core.Optimum.solution) ->
              s.time_overhead <= rho *. (1. +. 1e-9))
            candidates)

(* A random machine with 1 to 6 speeds, or 12 to 14 (144 to 196
   pairs, solved on the pool), and a bound from 0.8 to 4 times its
   smallest feasible one: some draws are infeasible. *)
let arb_env_rho =
  let gen =
    QCheck.Gen.(
      map
        (fun ((params, power), (first, gaps), factor) ->
          let speeds =
            List.rev
              (List.fold_left
                 (fun acc gap -> (List.hd acc +. gap) :: acc)
                 [ first ] gaps)
          in
          let env = Core.Env.make ~params ~power ~speeds in
          (env, factor *. Core.Bicrit.min_feasible_rho env))
        (triple (pair gen_params gen_power)
           (pair (float_range 0.05 0.3)
              (oneof [ int_range 0 5; int_range 11 13 ]
              >>= fun n -> list_repeat n (float_range 0.01 0.15)))
           (float_range 0.8 4.)))
  in
  QCheck.make
    ~print:(fun (env, rho) -> Format.asprintf "%a rho=%h" Core.Env.pp env rho)
    gen

let prop_diagonal_is_single_speed =
  (* The single-speed optimum read off the two-speed candidates is the
     single-speed solve's, to the last bit, and so is the saving
     computed from it. *)
  QCheck.Test.make ~count:300
    ~name:"diagonal optimum = single-speed solve, bit for bit" arb_env_rho
    (fun (env, rho) ->
      let two = Core.Bicrit.solve env ~rho in
      let one = Core.Bicrit.solve ~mode:Core.Bicrit.Single_speed env ~rho in
      let best = Option.map (fun (r : Core.Bicrit.result) -> r.best) in
      let two_solve_saving =
        match (best two, best one) with
        | Some b2, Some b1 ->
            let e1 = b1.energy_overhead in
            if Float.equal e1 0. then None
            else Some ((e1 -. b2.energy_overhead) /. e1)
        | None, _ | _, None -> None
      in
      Option.equal same_solution
        (Option.bind two (Core.Bicrit.single_speed_best env ~rho))
        (best one)
      && Option.equal same_bits
           (Core.Bicrit.energy_saving_vs_single env ~rho)
           two_solve_saving)

let test_diagonal_copy () =
  (* At rho = 3 the best pair of Hera/XScale is (0.4, 0.4): the
     diagonal optimum is an equal record sharing no block with it, so
     the pair marshals like two independent solves. *)
  match Core.Bicrit.solve env ~rho:3. with
  | None -> Alcotest.fail "rho = 3 must be feasible on Hera/XScale"
  | Some r -> (
      match Core.Bicrit.single_speed_best env ~rho:3. r with
      | None -> Alcotest.fail "expected a single-speed optimum"
      | Some one ->
          Alcotest.(check bool) "equal" true (same_solution one r.best);
          Alcotest.(check bool) "not the same record" false (one == r.best);
          let independent =
            Core.Bicrit.solve ~mode:Core.Bicrit.Single_speed env ~rho:3.
          in
          let marshal pair = Marshal.to_string pair [] in
          Alcotest.(check string) "marshals like a second solve"
            (marshal (r.best, (Option.get independent).best))
            (marshal (r.best, one)))

let test_deterministic () =
  (* Same input, same output, including tie-breaks. *)
  let a = Core.Bicrit.solve env ~rho:3. in
  let b = Core.Bicrit.solve env ~rho:3. in
  match (a, b) with
  | Some a, Some b ->
      checkf "same sigma1" a.Core.Bicrit.best.Core.Optimum.sigma1
        b.Core.Bicrit.best.Core.Optimum.sigma1;
      checkf "same sigma2" a.best.Core.Optimum.sigma2
        b.best.Core.Optimum.sigma2
  | None, _ | _, None -> Alcotest.fail "expected solutions"

let prop_saving_finite_when_present =
  (* Guard regression: the saving ratio must never be nan/inf — a zero
     single-speed overhead reports None instead of dividing by it. *)
  QCheck.Test.make ~count:100 ~name:"saving is finite when present"
    QCheck.(pair (int_range 0 7) (float_range 1.3 10.))
    (fun (config_index, rho) ->
      let env = List.nth all_envs config_index in
      match Core.Bicrit.energy_saving_vs_single env ~rho with
      | None -> true
      | Some saving -> Float.is_finite saving)

let test_saving_at_tight_bound () =
  (* At rho = 1.775 the winning pair is genuinely mixed (0.6, 0.8), so
     the two-speed saving must be strictly positive. *)
  match Core.Bicrit.energy_saving_vs_single env ~rho:1.775 with
  | None -> Alcotest.fail "expected feasible"
  | Some saving -> Alcotest.(check bool) "strict saving" true (saving > 0.01)

let () =
  Alcotest.run "core-bicrit"
    [
      ( "solver",
        [
          Alcotest.test_case "paper optimum at rho=3" `Quick
            test_solve_paper_optimum;
          Alcotest.test_case "best is argmin" `Quick test_best_is_argmin;
          Alcotest.test_case "single-speed mode" `Quick test_single_speed_mode;
          Alcotest.test_case "infeasible rho" `Quick test_infeasible_rho;
          Alcotest.test_case "per-sigma1 rows at 1.775" `Quick
            test_best_second_speed_rows;
          Alcotest.test_case "validation" `Quick test_rho_validation;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "mixed pair saves energy" `Quick
            test_saving_at_tight_bound;
          Alcotest.test_case "candidates = per-pair Theorem 1" `Quick
            test_candidates_match_pairwise;
          Alcotest.test_case "solve allocation" `Quick test_solve_allocation;
          Alcotest.test_case "diagonal optimum is a copy" `Quick
            test_diagonal_copy;
        ] );
      ( "invariants",
        [
          Testutil.qcheck prop_two_speeds_never_lose;
          Testutil.qcheck prop_relaxing_rho_never_hurts;
          Testutil.qcheck prop_candidates_meet_bound;
          Testutil.qcheck prop_saving_finite_when_present;
          Testutil.qcheck prop_diagonal_is_single_speed;
        ] );
    ]
