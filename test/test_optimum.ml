(* Tests for Core.Optimum — Theorem 1 (Wopt = min(max(W1, We), W2)). *)

open Testutil

let env = hera_xscale ()
let params = env.Core.Env.params
let power = env.Core.Env.power

let test_we_paper_values () =
  (* Equation (5) produces the Wopt column of the Section 4.2 tables
     whenever the bound is inactive. *)
  check_close ~rtol:1e-3 "We(0.4, 0.4)" 2764.
    (Core.Optimum.w_energy params power ~sigma1:0.4 ~sigma2:0.4);
  check_close ~rtol:1e-3 "We(0.15, 0.4)" 1711.
    (Core.Optimum.w_energy params power ~sigma1:0.15 ~sigma2:0.4);
  check_close ~rtol:1e-3 "We(0.6, 0.4)" 3639.5
    (Core.Optimum.w_energy params power ~sigma1:0.6 ~sigma2:0.4);
  check_close ~rtol:1e-3 "We(0.8, 0.4)" 4627.
    (Core.Optimum.w_energy params power ~sigma1:0.8 ~sigma2:0.4)

let test_solve_pair_unconstrained () =
  (* rho = 8 leaves (0.4, 0.4) unconstrained: Wopt = We. *)
  match Core.Optimum.solve_pair params power ~rho:8. ~sigma1:0.4 ~sigma2:0.4 with
  | None -> Alcotest.fail "expected a solution"
  | Some s ->
      Alcotest.(check bool) "bound inactive" false s.Core.Optimum.bound_active;
      check_close "Wopt = We" s.Core.Optimum.w_energy s.Core.Optimum.w_opt;
      Alcotest.(check bool) "T/W below bound" true
        (s.Core.Optimum.time_overhead < 8.)

let test_solve_pair_constrained () =
  (* (0.6, 0.8) at rho = 1.775: the paper's one genuinely mixed optimal
     pair; the bound displaces We. *)
  match
    Core.Optimum.solve_pair params power ~rho:1.775 ~sigma1:0.6 ~sigma2:0.8
  with
  | None -> Alcotest.fail "expected a solution"
  | Some s ->
      Alcotest.(check bool) "bound active" true s.Core.Optimum.bound_active;
      check_close ~rtol:1e-3 "Wopt = 4251 (paper)" 4251. s.Core.Optimum.w_opt;
      check_close ~rtol:2e-3 "E/W = 690 (paper)" 690.
        s.Core.Optimum.energy_overhead;
      (* The active bound pins the time overhead to rho. *)
      check_close ~rtol:1e-6 "T/W = rho" 1.775 s.Core.Optimum.time_overhead

let test_solve_pair_infeasible () =
  Alcotest.(check bool)
    "(0.15, *) infeasible at rho = 3" true
    (Core.Optimum.solve_pair params power ~rho:3. ~sigma1:0.15 ~sigma2:1.
    = None)

let prop_wopt_in_window =
  QCheck.Test.make ~count:300 ~name:"Wopt always lies in the window"
    QCheck.(pair arb_full (float_range 1.05 5.))
    (fun ((p, pw, (_, sigma1, sigma2)), slack) ->
      let rho = Core.Feasibility.rho_min p ~sigma1 ~sigma2 *. slack in
      match Core.Optimum.solve_pair p pw ~rho ~sigma1 ~sigma2 with
      | None -> false
      | Some s ->
          Core.Feasibility.contains s.Core.Optimum.window
            s.Core.Optimum.w_opt)

let prop_bound_respected =
  QCheck.Test.make ~count:300 ~name:"time overhead never exceeds rho"
    QCheck.(pair arb_full (float_range 1.05 5.))
    (fun ((p, pw, (_, sigma1, sigma2)), slack) ->
      let rho = Core.Feasibility.rho_min p ~sigma1 ~sigma2 *. slack in
      match Core.Optimum.solve_pair p pw ~rho ~sigma1 ~sigma2 with
      | None -> false
      | Some s -> s.Core.Optimum.time_overhead <= rho *. (1. +. 1e-9))

let prop_wopt_optimal_in_window =
  (* No other feasible W gives a smaller first-order energy overhead. *)
  QCheck.Test.make ~count:300 ~name:"Wopt minimizes energy on the window"
    QCheck.(
      pair arb_full (pair (float_range 1.05 5.) (float_range 0. 1.)))
    (fun ((p, pw, (_, sigma1, sigma2)), (slack, frac)) ->
      let rho = Core.Feasibility.rho_min p ~sigma1 ~sigma2 *. slack in
      match Core.Optimum.solve_pair p pw ~rho ~sigma1 ~sigma2 with
      | None -> false
      | Some s ->
          let win = s.Core.Optimum.window in
          let w_other =
            win.Core.Feasibility.w_min
            +. (frac
                *. (win.Core.Feasibility.w_max -. win.Core.Feasibility.w_min))
          in
          let o = Core.First_order.energy p pw ~sigma1 ~sigma2 in
          s.Core.Optimum.energy_overhead
          <= Core.First_order.eval o ~w:w_other +. 1e-9)

let prop_bound_active_consistent =
  QCheck.Test.make ~count:300
    ~name:"bound_active iff We falls outside the window"
    QCheck.(pair arb_full (float_range 1.05 5.))
    (fun ((p, pw, (_, sigma1, sigma2)), slack) ->
      let rho = Core.Feasibility.rho_min p ~sigma1 ~sigma2 *. slack in
      match Core.Optimum.solve_pair p pw ~rho ~sigma1 ~sigma2 with
      | None -> false
      | Some s ->
          s.Core.Optimum.bound_active
          = not
              (Core.Feasibility.contains s.Core.Optimum.window
                 s.Core.Optimum.w_energy))

(* Theorem 1 composed from the public building blocks, each overhead
   recomputed where it is used: the window from one time overhead, We
   from one energy overhead, both evaluations from fresh ones again.
   [solve_pair] computes each overhead once and must reproduce this
   composition bit for bit. *)
let reference_solve_pair p pw ~rho ~sigma1 ~sigma2 =
  match Core.Feasibility.window p ~rho ~sigma1 ~sigma2 with
  | None -> None
  | Some window ->
      let we = Core.Optimum.w_energy p pw ~sigma1 ~sigma2 in
      let w_opt = Core.Feasibility.clamp window we in
      let energy = Core.First_order.energy p pw ~sigma1 ~sigma2 in
      let time = Core.First_order.time p ~sigma1 ~sigma2 in
      Some
        {
          Core.Optimum.sigma1;
          sigma2;
          w_opt;
          w_energy = we;
          window;
          energy_overhead = Core.First_order.eval energy ~w:w_opt;
          time_overhead = Core.First_order.eval time ~w:w_opt;
          bound_active = not (Core.Feasibility.contains window we);
        }

(* rho as a multiple of the pair's rho_min: comfortably feasible,
   infeasible, and within a few ulps of the tangent contact, where the
   window degenerates to a double root. *)
let gen_rho_factor =
  QCheck.Gen.(
    frequency
      [
        (3, float_range 1.05 5.);
        (2, float_range 0.2 0.999);
        ( 2,
          map
            (fun k -> 1. +. (float_of_int k *. epsilon_float))
            (int_range (-4) 4) );
        (1, float_range 0.999999 1.000001);
      ])

let prop_matches_reference =
  QCheck.Test.make ~count:2000
    ~name:"solve_pair equals the reference composition bit for bit"
    (QCheck.make
       ~print:(fun (p, pw, (sigma1, sigma2, factor)) ->
         Format.asprintf "%a %a s1=%h s2=%h factor=%h" Core.Params.pp p
           Core.Power.pp pw sigma1 sigma2 factor)
       QCheck.Gen.(
         triple gen_params gen_power
           (triple gen_speed gen_speed gen_rho_factor)))
    (fun (p, pw, (sigma1, sigma2, factor)) ->
      let rho = Core.Feasibility.rho_min p ~sigma1 ~sigma2 *. factor in
      match
        ( Core.Optimum.solve_pair p pw ~rho ~sigma1 ~sigma2,
          reference_solve_pair p pw ~rho ~sigma1 ~sigma2 )
      with
      | None, None -> true
      | Some got, Some expected -> same_solution got expected
      | Some _, None | None, Some _ -> false)

let test_exact_overheads_close () =
  match Core.Optimum.solve_pair params power ~rho:3. ~sigma1:0.4 ~sigma2:0.4 with
  | None -> Alcotest.fail "expected a solution"
  | Some s ->
      let t_exact, e_exact = Core.Optimum.exact_overheads params power s in
      check_close ~rtol:1e-3 "exact time close to first-order"
        s.Core.Optimum.time_overhead t_exact;
      check_close ~rtol:1e-3 "exact energy close to first-order"
        s.Core.Optimum.energy_overhead e_exact

let test_env_with_params () =
  let p2 = Core.Params.with_v params 99. in
  let env2 = Core.Env.with_params env p2 in
  checkf "params swapped" 99. env2.Core.Env.params.Core.Params.v;
  checkf "power kept" power.Core.Power.kappa
    env2.Core.Env.power.Core.Power.kappa

let test_pp_solution () =
  match Core.Optimum.solve_pair params power ~rho:3. ~sigma1:0.4 ~sigma2:0.4 with
  | None -> Alcotest.fail "pair (0.4, 0.4) must be feasible at rho = 3"
  | Some s ->
      let rendered = Format.asprintf "%a" Core.Optimum.pp_solution s in
      Alcotest.(check bool) "printer renders the solution" true
        (String.length rendered > 0)

let () =
  Alcotest.run "core-optimum"
    [
      ( "paper values",
        [
          Alcotest.test_case "We column" `Quick test_we_paper_values;
          Alcotest.test_case "unconstrained pair" `Quick
            test_solve_pair_unconstrained;
          Alcotest.test_case "constrained pair (0.6, 0.8)" `Quick
            test_solve_pair_constrained;
          Alcotest.test_case "infeasible pair" `Quick
            test_solve_pair_infeasible;
          Alcotest.test_case "exact overheads" `Quick
            test_exact_overheads_close;
          Alcotest.test_case "env with_params" `Quick test_env_with_params;
          Alcotest.test_case "solution printer" `Quick test_pp_solution;
        ] );
      ( "theorem 1 invariants",
        [
          Testutil.qcheck prop_wopt_in_window;
          Testutil.qcheck prop_bound_respected;
          Testutil.qcheck prop_wopt_optimal_in_window;
          Testutil.qcheck prop_bound_active_consistent;
          Testutil.qcheck prop_matches_reference;
        ] );
    ]
