type estimate = {
  time : Numerics.Stats.summary;
  energy : Numerics.Stats.summary;
  re_executions_mean : float;
}

type check = {
  label : string;
  expected : float;
  observed : Numerics.Stats.summary;
  z : float;
  ok : bool;
}

type pattern_checks = {
  pattern_time : check;
  pattern_energy : check;
  re_executions : check;
}

let replicate ?pool ?journal ?on_resume ~replicas ~seed run =
  if replicas < 1 then invalid_arg "Montecarlo: replicas must be >= 1";
  (* The streams are pre-split from the root seed before any work is
     dispatched: replica i always sees the i-th 2^128-jump
     subsequence, so the domain count can never change what a replica
     draws — parallel results are bit-identical to sequential ones.
     The same property makes each replica a pure function of its slot,
     so journaled runs recover replicas verbatim and recompute only
     the missing ones. *)
  let root = Prng.Rng.create ~seed in
  let rngs = Prng.Rng.split root replicas in
  Resilience.Checkpointed.init_array ?pool ?journal ?on_resume replicas
    (fun i -> run rngs.(i))

(* One replica of one pattern, on a fresh machine. *)
let pattern_replica ~model ~power ~w ~sigma1 ~sigma2 rng =
  let machine = Machine.create power in
  Executor.run_pattern ~model ~machine ~rng ~w ~sigma1 ~sigma2 ()

let pattern_estimate ?pool ?journal ?on_resume ~replicas ~seed ~model ~power ~w
    ~sigma1 ~sigma2 () =
  let outcomes =
    replicate ?pool ?journal ?on_resume ~replicas ~seed
      (pattern_replica ~model ~power ~w ~sigma1 ~sigma2)
  in
  {
    time =
      Numerics.Stats.summarize
        (Array.map (fun (o : Executor.pattern_outcome) -> o.time) outcomes);
    energy =
      Numerics.Stats.summarize
        (Array.map (fun (o : Executor.pattern_outcome) -> o.energy) outcomes);
    re_executions_mean =
      Numerics.Stats.mean
        (Array.map
           (fun (o : Executor.pattern_outcome) ->
             float_of_int o.re_executions)
           outcomes);
  }

let application_estimate ?pool ?journal ?on_resume ~replicas ~seed ~model
    ~power ~w_base ~pattern_w ~sigma1 ~sigma2 () =
  let outcomes =
    replicate ?pool ?journal ?on_resume ~replicas ~seed (fun rng ->
        Executor.run_application ~model ~power ~rng ~w_base ~pattern_w ~sigma1
          ~sigma2 ())
  in
  {
    time =
      Numerics.Stats.summarize
        (Array.map (fun (o : Executor.outcome) -> o.makespan) outcomes);
    energy =
      Numerics.Stats.summarize
        (Array.map (fun (o : Executor.outcome) -> o.total_energy) outcomes);
    re_executions_mean =
      Numerics.Stats.mean
        (Array.map
           (fun (o : Executor.outcome) -> float_of_int o.re_executions)
           outcomes);
  }

let make_check ~label ~z ~expected (observed : Numerics.Stats.summary) =
  let score =
    if Float.equal observed.std_error 0. then
      if Numerics.Float_utils.approx_equal observed.mean expected then 0.
      else infinity
    else Float.abs (observed.mean -. expected) /. observed.std_error
  in
  { label; expected; observed; z = score; ok = score <= z }

let checks ?(z = 3.89) ?pool ?journal ?on_resume ~replicas ~seed ~model ~power
    ~w ~sigma1 ~sigma2 () =
  (* One simulation pass feeds all three comparisons; the time, energy
     and re-execution checks are different projections of the same
     outcomes, not reasons to pay the simulation cost three times. *)
  let outcomes =
    replicate ?pool ?journal ?on_resume ~replicas ~seed
      (pattern_replica ~model ~power ~w ~sigma1 ~sigma2)
  in
  let summarize f = Numerics.Stats.summarize (Array.map f outcomes) in
  let time =
    make_check ~label:"pattern time" ~z
      ~expected:(Core.Mixed.expected_time model ~w ~sigma1 ~sigma2)
      (summarize (fun (o : Executor.pattern_outcome) -> o.time))
  in
  let energy =
    make_check ~label:"pattern energy" ~z
      ~expected:(Core.Mixed.expected_energy model power ~w ~sigma1 ~sigma2)
      (summarize (fun (o : Executor.pattern_outcome) -> o.energy))
  in
  let re_executions =
    let p1 = Core.Mixed.success_probability model ~w ~sigma:sigma1 in
    let p2 = Core.Mixed.success_probability model ~w ~sigma:sigma2 in
    make_check ~label:"re-executions" ~z ~expected:((1. -. p1) /. p2)
      (summarize (fun (o : Executor.pattern_outcome) ->
           float_of_int o.re_executions))
  in
  { pattern_time = time; pattern_energy = energy; re_executions }

let pp_check ppf c =
  Format.fprintf ppf
    "%s: expected %.6g, observed %.6g +/- %.2g (n=%d, z=%.2f) %s" c.label
    c.expected c.observed.mean c.observed.std_error c.observed.n c.z
    (if c.ok then "OK" else "MISMATCH")
