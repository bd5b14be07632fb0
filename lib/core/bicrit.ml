type mode = Two_speeds | Single_speed

type result = {
  best : Optimum.solution;
  candidates : Optimum.solution list;
}

(* Below this many speed pairs a solve is too cheap to amortize a
   parallel region; the paper's ladders (K <= 6, K^2 <= 36) always
   stay sequential, large custom DVFS ladders fan out. *)
let parallel_pair_threshold = 128

let check_rho name rho =
  if not (Float.is_finite rho && rho > 0.) then
    invalid_arg (name ^ ": rho must be positive and finite")

let best_of candidates =
  Numerics.Minimize.argmin_by
    (fun (s : Optimum.solution) -> s.energy_overhead)
    candidates

let solve ?(mode = Two_speeds) ?pool ?journal ?on_resume (env : Env.t) ~rho =
  check_rho "Bicrit.solve" rho;
  let speeds = env.speeds in
  let k = Array.length speeds in
  let slots = match mode with Two_speeds -> k * k | Single_speed -> k in
  let pool =
    (* A journaled solve always goes through the checkpointing path,
       even below the parallel threshold — crash safety is requested
       explicitly and is worth more than the region overhead. *)
    if journal = None && slots < parallel_pair_threshold then
      Some Parallel.Pool.sequential
    else pool
  in
  (* Slot i is the i-th pair of [Env.speed_pairs] (first speed major),
     or the i-th diagonal pair in single-speed mode. *)
  let solved =
    Resilience.Checkpointed.init_array ?pool ?journal ?on_resume slots
      (fun i ->
        let i1, i2 =
          match mode with
          | Two_speeds -> (i / k, i mod k)
          | Single_speed -> (i, i)
        in
        Optimum.solve_pair env.params env.power ~rho ~sigma1:speeds.(i1)
          ~sigma2:speeds.(i2))
  in
  let candidates =
    Array.fold_right
      (fun s rest -> match s with Some s -> s :: rest | None -> rest)
      solved []
  in
  match best_of candidates with
  | None -> None
  | Some (best, _) -> Some { best; candidates }

let best_second_speed (env : Env.t) ~rho ~sigma1 =
  check_rho "Bicrit.best_second_speed" rho;
  let candidates =
    Array.to_list env.speeds
    |> List.filter_map (fun sigma2 ->
           Optimum.solve_pair env.params env.power ~rho ~sigma1 ~sigma2)
  in
  Option.map fst (best_of candidates)

let min_feasible_rho (env : Env.t) =
  Env.speed_pairs env
  |> List.map (fun (sigma1, sigma2) ->
         Feasibility.rho_min env.params ~sigma1 ~sigma2)
  |> List.fold_left Float.min infinity

let energy_saving_vs_single env ~rho =
  match (solve ~mode:Two_speeds env ~rho, solve ~mode:Single_speed env ~rho) with
  | Some two, Some one ->
      let e2 = two.best.Optimum.energy_overhead in
      let e1 = one.best.Optimum.energy_overhead in
      (* A zero single-speed overhead (possible with an all-zero power
         model) would turn the ratio into nan/inf and poison CSV rows
         downstream; report "no meaningful saving" instead. *)
      if Float.equal e1 0. then None else Some ((e1 -. e2) /. e1)
  | None, _ | _, None -> None
