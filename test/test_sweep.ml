(* Tests for the sweep engine: parameter application, series
   construction and shape checks. *)

open Testutil

let env = atlas_crusoe ()

let test_parameter_apply () =
  let rho = 3. in
  let env', rho' = Sweep.Parameter.apply Sweep.Parameter.C ~env ~rho 1234. in
  checkf "C set" 1234. env'.Core.Env.params.Core.Params.c;
  checkf "R follows C" 1234. env'.Core.Env.params.Core.Params.r;
  checkf "rho untouched" rho rho';
  let env', _ = Sweep.Parameter.apply Sweep.Parameter.V ~env ~rho 55. in
  checkf "V set" 55. env'.Core.Env.params.Core.Params.v;
  let env', _ = Sweep.Parameter.apply Sweep.Parameter.Lambda ~env ~rho 1e-4 in
  checkf "lambda set" 1e-4 env'.Core.Env.params.Core.Params.lambda;
  let _, rho' = Sweep.Parameter.apply Sweep.Parameter.Rho ~env ~rho 1.5 in
  checkf "rho swept" 1.5 rho';
  let env', _ = Sweep.Parameter.apply Sweep.Parameter.P_idle ~env ~rho 500. in
  checkf "Pidle set" 500. env'.Core.Env.power.Core.Power.p_idle;
  let env', _ = Sweep.Parameter.apply Sweep.Parameter.P_io ~env ~rho 750. in
  checkf "Pio set" 750. env'.Core.Env.power.Core.Power.p_io

let test_parameter_names () =
  Alcotest.(check int) "six parameters" 6 (List.length Sweep.Parameter.all);
  List.iter
    (fun p ->
      match Sweep.Parameter.of_string (Sweep.Parameter.name p) with
      | Some p' when p = p' -> ()
      | Some _ | None -> Alcotest.failf "roundtrip failed for %s" (Sweep.Parameter.name p))
    Sweep.Parameter.all;
  Alcotest.(check bool) "case-insensitive" true
    (Sweep.Parameter.of_string "LAMBDA" = Some Sweep.Parameter.Lambda);
  Alcotest.(check bool) "unknown" true (Sweep.Parameter.of_string "zzz" = None);
  Alcotest.(check string) "unit for C" "s"
    (Sweep.Parameter.unit_label Sweep.Parameter.C);
  Alcotest.(check string) "unit for rho" ""
    (Sweep.Parameter.unit_label Sweep.Parameter.Rho)

let test_paper_axes () =
  let c_axis = Sweep.Parameter.paper_axis Sweep.Parameter.C () in
  Alcotest.(check int) "C axis points" 101 (List.length c_axis);
  checkf "C starts above zero" 1. (List.hd c_axis);
  checkf "C ends at 5000" 5000. (List.nth c_axis 100);
  let l_axis = Sweep.Parameter.paper_axis Sweep.Parameter.Lambda () in
  checkf ~eps:1e-12 "lambda starts at 1e-6" 1e-6 (List.hd l_axis);
  check_close ~rtol:1e-9 "lambda ends at 1e-2" 1e-2
    (List.nth l_axis (List.length l_axis - 1));
  let l_axis' =
    Sweep.Parameter.paper_axis Sweep.Parameter.Lambda ~lambda_hi:1e-3 ()
  in
  check_close ~rtol:1e-9 "lambda_hi honoured" 1e-3
    (List.nth l_axis' (List.length l_axis' - 1));
  let rho_axis = Sweep.Parameter.paper_axis Sweep.Parameter.Rho ~points:11 () in
  checkf "rho starts at 1" 1. (List.hd rho_axis);
  checkf "rho ends at 3.5" 3.5 (List.nth rho_axis 10);
  let pidle = Sweep.Parameter.paper_axis Sweep.Parameter.P_idle () in
  checkf "Pidle starts at 0" 0. (List.hd pidle)

let small_series () =
  Sweep.Series.run ~label:"test" ~env ~rho:3. ~parameter:Sweep.Parameter.C
    ~xs:[ 100.; 1000.; 3000.; 5000. ] ()

let test_series_run () =
  let s = small_series () in
  Alcotest.(check int) "one point per x" 4 (List.length s.Sweep.Series.points);
  checkf "feasible everywhere" 1. (Sweep.Series.feasible_fraction s);
  List.iter
    (fun (p : Sweep.Series.point) ->
      match (p.two_speed, p.single_speed) with
      | Some two, Some one ->
          Alcotest.(check bool) "two-speed <= one-speed" true
            (two.Core.Optimum.energy_overhead
            <= one.Core.Optimum.energy_overhead +. 1e-9)
      | None, _ | _, None -> Alcotest.fail "expected feasible points")
    s.Sweep.Series.points

let test_series_rows () =
  let s = small_series () in
  let rows = Sweep.Series.to_rows s in
  Alcotest.(check int) "row per point" 4 (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check int) "columns match header"
        (List.length Sweep.Series.column_names)
        (Array.length row))
    rows;
  (* x column is the swept value. *)
  checkf "first x" 100. (List.hd rows).(0)

let test_series_savings () =
  let s = small_series () in
  Alcotest.(check bool) "max saving non-negative" true
    (Sweep.Series.max_saving s >= 0.);
  List.iter
    (fun p ->
      match Sweep.Series.saving p with
      | Some saving ->
          Alcotest.(check bool) "saving in [0, 1)" true
            (saving >= -1e-12 && saving < 1.)
      | None -> Alcotest.fail "expected a saving")
    s.Sweep.Series.points

let test_infeasible_points () =
  (* rho below the minimum: every point must be infeasible. *)
  let s =
    Sweep.Series.run ~env ~rho:1.01 ~parameter:Sweep.Parameter.C
      ~xs:[ 100.; 1000. ] ()
  in
  checkf "nothing feasible" 0. (Sweep.Series.feasible_fraction s);
  checkf "no saving" 0. (Sweep.Series.max_saving s);
  let rows = Sweep.Series.to_rows s in
  Alcotest.(check bool) "NaN solution columns" true
    (Float.is_nan (List.hd rows).(1))

let test_distinct_fraction () =
  let s = small_series () in
  let f = Sweep.Series.speeds_distinct_fraction s in
  Alcotest.(check bool) "fraction in [0, 1]" true (f >= 0. && f <= 1.)

(* ------------------------------------------------------------------ *)
(* Shape                                                               *)

let test_shape_monotone () =
  Alcotest.(check bool) "increasing" true
    (Sweep.Shape.nondecreasing [ (0., 1.); (1., 1.); (2., 3.) ]);
  Alcotest.(check bool) "not increasing" false
    (Sweep.Shape.nondecreasing [ (0., 1.); (1., 0.5) ]);
  Alcotest.(check bool) "tolerant of noise" true
    (Sweep.Shape.nondecreasing ~rtol:1e-6 [ (0., 1.); (1., 1. -. 1e-9) ]);
  Alcotest.(check bool) "decreasing" true
    (Sweep.Shape.nonincreasing [ (0., 3.); (1., 2.); (2., 2.) ]);
  Alcotest.(check bool) "empty is monotone" true (Sweep.Shape.nondecreasing []);
  Alcotest.(check bool) "singleton is monotone" true
    (Sweep.Shape.nondecreasing [ (0., 5.) ])

let test_shape_steps () =
  Alcotest.(check (list (float 1e-9))) "plateau compression"
    [ 0.45; 0.6; 0.45 ]
    (Sweep.Shape.step_values
       [ (0., 0.45); (1., 0.45); (2., 0.6); (3., 0.6); (4., 0.45) ]);
  Alcotest.(check (list (float 1e-9))) "empty" []
    (Sweep.Shape.step_values [])

let test_shape_never_above () =
  let a = [ (0., 1.); (1., 2.) ] in
  let b = [ (0., 1.5); (1., 2.) ] in
  Alcotest.(check bool) "a below b" true (Sweep.Shape.never_above a b);
  Alcotest.(check bool) "b above a" false (Sweep.Shape.never_above b a);
  (* Non-shared xs are ignored. *)
  Alcotest.(check bool) "disjoint xs vacuous" true
    (Sweep.Shape.never_above [ (0., 9.) ] [ (1., 1.) ])

let test_shape_gap_ratio () =
  let cheap = [ (0., 80.); (1., 50.) ] in
  let expensive = [ (0., 100.); (1., 100.) ] in
  checkf "max gap" 0.5 (Sweep.Shape.max_gap_ratio cheap expensive);
  checkf "no shared points" 0. (Sweep.Shape.max_gap_ratio [ (9., 1.) ] expensive)

let test_shape_project () =
  let s = small_series () in
  let pts = Sweep.Shape.project s Sweep.Shape.two_speed_energy in
  Alcotest.(check int) "all feasible projected" 4 (List.length pts);
  let infeasible =
    Sweep.Series.run ~env ~rho:1.01 ~parameter:Sweep.Parameter.C
      ~xs:[ 100. ] ()
  in
  Alcotest.(check int) "infeasible filtered" 0
    (List.length (Sweep.Shape.project infeasible Sweep.Shape.two_speed_energy))

(* ------------------------------------------------------------------ *)
(* Crossover                                                           *)

let test_scan_simple_step () =
  let f x = Some (if x < 2.5 then 1. else 2.) in
  match Sweep.Crossover.scan ~f ~lo:0. ~hi:5. () with
  | [ b ] ->
      Alcotest.(check bool) "bracket tight" true (b.upper -. b.lower < 1e-4);
      Alcotest.(check bool) "locates 2.5" true
        (b.lower <= 2.5 && 2.5 <= b.upper +. 1e-4);
      Alcotest.(check bool) "values" true
        (b.before = Some 1. && b.after = Some 2.)
  | bs -> Alcotest.failf "expected one boundary, got %d" (List.length bs)

let test_scan_feasibility_edge () =
  let f x = if x > 3. then None else Some 1. in
  match Sweep.Crossover.scan ~f ~lo:0. ~hi:5. () with
  | [ b ] ->
      Alcotest.(check bool) "feasible side" true (b.before = Some 1.);
      Alcotest.(check bool) "infeasible side" true (b.after = None);
      Alcotest.(check bool) "locates 3" true
        (b.lower <= 3.000001 && 3. <= b.upper)
  | bs -> Alcotest.failf "expected one boundary, got %d" (List.length bs)

let test_scan_no_switch () =
  Alcotest.(check int) "constant projection" 0
    (List.length (Sweep.Crossover.scan ~f:(fun _ -> Some 7.) ~lo:0. ~hi:1. ()));
  match Sweep.Crossover.scan ~f:(fun _ -> Some 7.) ~lo:1. ~hi:1. () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty axis must raise"

let test_fig2_switch_points () =
  (* Figure 2 (Atlas/Crusoe, C axis): sigma1 never switches; sigma2
     steps 0.45 -> 0.6 -> 0.8 at C* ~ 3349 and ~ 4275 s, and the solver
     agrees on either side of each located boundary. *)
  let s1, s2 =
    Sweep.Crossover.speed_switches env ~rho:3. Sweep.Parameter.C ~lo:1.
      ~hi:5000.
  in
  Alcotest.(check int) "sigma1 constant" 0 (List.length s1);
  Alcotest.(check int) "two sigma2 switches" 2 (List.length s2);
  List.iter
    (fun (b : Sweep.Crossover.boundary) ->
      let at x = Sweep.Crossover.optimal_sigma2 env ~rho:3. Sweep.Parameter.C x in
      Alcotest.(check bool) "before value consistent" true
        (at b.lower = b.before);
      Alcotest.(check bool) "after value consistent" true (at b.upper = b.after))
    s2;
  match s2 with
  | [ first; second ] ->
      Alcotest.(check bool) "ordered" true (first.upper <= second.lower);
      Alcotest.(check bool) "first is 0.45->0.6" true
        (first.before = Some 0.45 && first.after = Some 0.6);
      Alcotest.(check bool) "second is 0.6->0.8" true
        (second.before = Some 0.6 && second.after = Some 0.8)
  | _ -> Alcotest.fail "unexpected switch structure"

(* ------------------------------------------------------------------ *)
(* Grid2d                                                              *)

let small_grid () =
  Sweep.Grid2d.run ~label:"test" ~env ~rho:3.
    ~x:(Sweep.Parameter.C, [ 100.; 1000.; 4000. ])
    ~y:(Sweep.Parameter.Lambda, [ 1e-6; 1e-4 ])
    ()

let test_grid_shape () =
  let g = small_grid () in
  Alcotest.(check int) "rows = y axis" 2 (Array.length g.Sweep.Grid2d.cells);
  Alcotest.(check int) "cols = x axis" 3
    (Array.length g.Sweep.Grid2d.cells.(0));
  (* Cell coordinates follow the axes. *)
  checkf "x of first cell" 100. g.Sweep.Grid2d.cells.(0).(0).Sweep.Grid2d.x;
  checkf "y of first row" 1e-6 g.Sweep.Grid2d.cells.(0).(2).Sweep.Grid2d.y;
  checkf "y of second row" 1e-4 g.Sweep.Grid2d.cells.(1).(0).Sweep.Grid2d.y

let test_grid_consistent_with_1d () =
  (* A grid cell must equal the 1-D sweep at the same coordinates. *)
  let g = small_grid () in
  let cell = g.Sweep.Grid2d.cells.(1).(1) in
  let env', rho =
    Sweep.Parameter.apply Sweep.Parameter.C ~env ~rho:3. 1000.
  in
  let env', rho = Sweep.Parameter.apply Sweep.Parameter.Lambda ~env:env' ~rho 1e-4 in
  (match (Core.Bicrit.solve env' ~rho, cell.Sweep.Grid2d.two_speed) with
  | Some { best; _ }, Some b ->
      checkf "same sigma1" best.Core.Optimum.sigma1 b.Core.Optimum.sigma1;
      checkf "same w_opt" best.Core.Optimum.w_opt b.Core.Optimum.w_opt
  | None, None -> ()
  | Some _, None | None, Some _ -> Alcotest.fail "feasibility mismatch")

let test_grid_stats () =
  let g = small_grid () in
  let f = Sweep.Grid2d.feasible_fraction g in
  Alcotest.(check bool) "fraction in [0, 1]" true (f >= 0. && f <= 1.);
  (match Sweep.Grid2d.max_saving g with
  | Some (_, _, s) -> Alcotest.(check bool) "saving >= 0" true (s >= -1e-12)
  | None -> Alcotest.fail "some cell should be feasible");
  let rows = Sweep.Grid2d.to_rows g in
  Alcotest.(check int) "six rows" 6 (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check int) "columns"
        (List.length Sweep.Grid2d.column_names)
        (Array.length row))
    rows

let test_grid_heatmap () =
  let g = small_grid () in
  let rendered = Sweep.Grid2d.render_heatmap ~value:Sweep.Grid2d.saving g in
  Alcotest.(check bool) "title" true
    (Astring_contains.contains rendered "C (x) vs lambda (y)");
  Alcotest.(check bool) "x range annotated" true
    (Astring_contains.contains rendered "x: 100 .. 4000");
  (* Deterministic rendering. *)
  Alcotest.(check string) "deterministic" rendered
    (Sweep.Grid2d.render_heatmap ~value:Sweep.Grid2d.saving g)

let test_grid_saving_zero_energy () =
  (* A zero single-speed energy overhead must yield no saving, not a
     silent nan that poisons CSV rows and heatmaps downstream. The
     solver never produces one for the paper's power models, so build
     the cell directly. *)
  let window =
    Option.get
      (Core.Feasibility.window env.Core.Env.params ~rho:3. ~sigma1:0.5
         ~sigma2:0.5)
  in
  let solution energy_overhead : Core.Optimum.solution =
    {
      sigma1 = 0.5;
      sigma2 = 0.5;
      w_opt = window.Core.Feasibility.w_min;
      w_energy = window.Core.Feasibility.w_min;
      window;
      energy_overhead;
      time_overhead = 3.;
      bound_active = false;
    }
  in
  let cell two one : Sweep.Grid2d.cell =
    { x = 1.; y = 1.; two_speed = two; single_speed = one }
  in
  (match Sweep.Grid2d.saving (cell (Some (solution 0.)) (Some (solution 0.))) with
  | None -> ()
  | Some s -> Alcotest.failf "expected None for e1 = 0, got %g" s);
  (match Sweep.Grid2d.saving (cell (Some (solution 80.)) (Some (solution 100.))) with
  | Some s -> checkf "normal ratio" 0.2 s
  | None -> Alcotest.fail "expected a saving");
  match Sweep.Grid2d.saving (cell None (Some (solution 100.))) with
  | None -> ()
  | Some _ -> Alcotest.fail "infeasible cell must have no saving"

(* A journaled grid's file, pinned by digest. Cells are marshalled
   with sharing, so a cell whose single-speed optimum were the very
   record of its two-speed one would encode differently: the grid
   covers infeasible cells and optima on and off the diagonal. *)
let test_grid_journal_bytes () =
  let path = Filename.temp_file "grid" ".journal" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let journal =
    {
      Resilience.Checkpointed.path;
      resume = false;
      description = "grid pin";
      durable = false;
    }
  in
  let g =
    Sweep.Grid2d.run ~label:"pin" ~journal ~env:(hera_xscale ()) ~rho:3.
      ~x:(Sweep.Parameter.Rho, [ 0.9; 1.3; 1.775; 3.; 6. ])
      ~y:(Sweep.Parameter.C, [ 100.; 300.; 3000. ])
      ()
  in
  let cells = Array.concat (Array.to_list g.Sweep.Grid2d.cells) in
  let count p = Array.fold_left (fun n c -> if p c then n + 1 else n) 0 cells in
  let diagonal (c : Sweep.Grid2d.cell) =
    match c.two_speed with
    | Some s -> Float.equal s.Core.Optimum.sigma1 s.Core.Optimum.sigma2
    | None -> false
  in
  Alcotest.(check bool) "an infeasible cell" true
    (count (fun c -> c.two_speed = None) > 0);
  Alcotest.(check bool) "a diagonal optimum" true (count diagonal > 0);
  Alcotest.(check bool) "an off-diagonal optimum" true
    (count (fun c -> c.two_speed <> None && not (diagonal c)) > 0);
  Alcotest.(check string) "journal digest" "482937e4ad66504035c11917925ed040"
    (Digest.to_hex (Digest.file path))

let test_grid_validation () =
  (match
     Sweep.Grid2d.run ~env ~rho:3.
       ~x:(Sweep.Parameter.C, [ 1. ])
       ~y:(Sweep.Parameter.C, [ 1. ])
       ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "same axis twice must raise");
  match
    Sweep.Grid2d.run ~env ~rho:3. ~x:(Sweep.Parameter.C, [])
      ~y:(Sweep.Parameter.V, [ 1. ])
      ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty axis must raise"

let test_shape_single_speed_projection () =
  let s = small_series () in
  let pts = Sweep.Shape.project s Sweep.Shape.single_speed_wopt in
  (* Wopt and energy come from the same single-speed solution option,
     so their projections must cover exactly the same axis points. *)
  Alcotest.(check int) "matches the energy projection"
    (List.length (Sweep.Shape.project s Sweep.Shape.single_speed_energy))
    (List.length pts);
  List.iter
    (fun (_, w) -> Alcotest.(check bool) "positive Wopt" true (w > 0.))
    pts

let test_projection_matches_bicrit () =
  let x = 450. in
  match Sweep.Crossover.optimal_sigma1 env ~rho:3. Sweep.Parameter.C x with
  | None -> Alcotest.fail "C = 450 must be feasible at rho = 3"
  | Some s1 -> (
      let env', rho' = Sweep.Parameter.apply Sweep.Parameter.C ~env ~rho:3. x in
      match Core.Bicrit.solve ~mode:Core.Bicrit.Two_speeds env' ~rho:rho' with
      | None -> Alcotest.fail "BiCrit disagrees on feasibility"
      | Some r -> checkf "sigma1 projection" r.Core.Bicrit.best.Core.Optimum.sigma1 s1)

let () =
  Alcotest.run "sweep"
    [
      ( "parameter",
        [
          Alcotest.test_case "apply" `Quick test_parameter_apply;
          Alcotest.test_case "names" `Quick test_parameter_names;
          Alcotest.test_case "paper axes" `Quick test_paper_axes;
        ] );
      ( "series",
        [
          Alcotest.test_case "run" `Quick test_series_run;
          Alcotest.test_case "rows" `Quick test_series_rows;
          Alcotest.test_case "savings" `Quick test_series_savings;
          Alcotest.test_case "infeasible" `Quick test_infeasible_points;
          Alcotest.test_case "distinct fraction" `Quick test_distinct_fraction;
        ] );
      ( "shape",
        [
          Alcotest.test_case "monotone" `Quick test_shape_monotone;
          Alcotest.test_case "steps" `Quick test_shape_steps;
          Alcotest.test_case "never_above" `Quick test_shape_never_above;
          Alcotest.test_case "gap ratio" `Quick test_shape_gap_ratio;
          Alcotest.test_case "project" `Quick test_shape_project;
          Alcotest.test_case "single-speed projection" `Quick
            test_shape_single_speed_projection;
        ] );
      ( "crossover",
        [
          Alcotest.test_case "simple step" `Quick test_scan_simple_step;
          Alcotest.test_case "feasibility edge" `Quick
            test_scan_feasibility_edge;
          Alcotest.test_case "no switch" `Quick test_scan_no_switch;
          Alcotest.test_case "sigma1 projection matches BiCrit" `Quick
            test_projection_matches_bicrit;
          Alcotest.test_case "figure 2 switch points" `Slow
            test_fig2_switch_points;
        ] );
      ( "grid2d",
        [
          Alcotest.test_case "shape" `Quick test_grid_shape;
          Alcotest.test_case "consistent with 1-D" `Quick
            test_grid_consistent_with_1d;
          Alcotest.test_case "stats" `Quick test_grid_stats;
          Alcotest.test_case "heatmap" `Quick test_grid_heatmap;
          Alcotest.test_case "zero-energy saving" `Quick
            test_grid_saving_zero_energy;
          Alcotest.test_case "validation" `Quick test_grid_validation;
          Alcotest.test_case "journal bytes pinned" `Quick
            test_grid_journal_bytes;
        ] );
    ]
