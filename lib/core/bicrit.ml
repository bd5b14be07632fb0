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

(* The single-speed problem's candidates are the pairs (s, s), solved
   by the same Theorem-1 kernel, so they are the diagonal of any
   result's candidates, in the same order; [best_of] then breaks ties
   exactly as [solve ~mode:Single_speed] does. Speeds are strictly
   increasing, so equal speeds mean one index. *)
let diagonal_best r =
  best_of
    (List.filter
       (fun (s : Optimum.solution) -> Float.equal s.sigma1 s.sigma2)
       r.candidates)
  |> Option.map fst

(* When the diagonal optimum is [r.best] itself, its pair is solved
   again exactly as [solve ~mode:Single_speed] solves it, speeds read
   from the array: the same bits, in a record that shares no block
   with [r.best], not even a boxed float. *)
let single_speed_best (env : Env.t) ~rho r =
  match diagonal_best r with
  | Some s when s == r.best ->
      let rec index i =
        if Float.equal env.speeds.(i) s.sigma1 then i else index (i + 1)
      in
      let i = index 0 in
      Optimum.solve_pair env.params env.power ~rho ~sigma1:env.speeds.(i)
        ~sigma2:env.speeds.(i)
  | best -> best

let energy_saving r =
  match diagonal_best r with
  | None -> None
  | Some one ->
      let e2 = r.best.Optimum.energy_overhead in
      let e1 = one.Optimum.energy_overhead in
      (* A zero single-speed overhead (possible with an all-zero power
         model) would turn the ratio into nan/inf and poison CSV rows
         downstream; report "no meaningful saving" instead. *)
      if Float.equal e1 0. then None else Some ((e1 -. e2) /. e1)

let energy_saving_vs_single env ~rho =
  Option.bind (solve ~mode:Two_speeds env ~rho) energy_saving
