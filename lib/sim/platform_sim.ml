type t = {
  node_lambda_f : float array;
  node_lambda_s : float array;
  c : float;
  r : float;
  v : float;
}

let check_non_negative name x =
  if not (Float.is_finite x) || x < 0. then
    invalid_arg ("Platform_sim: " ^ name ^ " must be non-negative and finite")

let sum = Array.fold_left ( +. ) 0.

let validate t =
  Array.iter (check_non_negative "node_lambda_f") t.node_lambda_f;
  Array.iter (check_non_negative "node_lambda_s") t.node_lambda_s;
  if Float.equal (sum t.node_lambda_f) 0. && Float.equal (sum t.node_lambda_s) 0.
  then
    invalid_arg "Platform_sim: at least one error rate must be positive";
  check_non_negative "c" t.c;
  check_non_negative "r" t.r;
  check_non_negative "v" t.v;
  t

let make ~nodes ~node_lambda_f ~node_lambda_s ~c ?r ~v () =
  if nodes < 1 then invalid_arg "Platform_sim.make: need at least one node";
  validate
    {
      node_lambda_f = Array.make nodes node_lambda_f;
      node_lambda_s = Array.make nodes node_lambda_s;
      c;
      r = Option.value r ~default:c;
      v;
    }

let heterogeneous ~node_lambda_f ~node_lambda_s ~c ?r ~v () =
  if Array.length node_lambda_f = 0 then
    invalid_arg "Platform_sim.heterogeneous: need at least one node";
  if Array.length node_lambda_f <> Array.length node_lambda_s then
    invalid_arg "Platform_sim.heterogeneous: rate arrays differ in length";
  validate
    {
      node_lambda_f = Array.copy node_lambda_f;
      node_lambda_s = Array.copy node_lambda_s;
      c;
      r = Option.value r ~default:c;
      v;
    }

let nodes t = Array.length t.node_lambda_f

let aggregate_model t =
  Core.Mixed.make ~c:t.c ~r:t.r ~v:t.v ~lambda_f:(sum t.node_lambda_f)
    ~lambda_s:(sum t.node_lambda_s) ()

type outcome = {
  time : float;
  energy : float;
  re_executions : int;
  silent_errors : int;
  fail_stop_errors : int;
  errors_by_node : int array;
}

type attempt_result =
  | Success
  | Silent of int list
  | Crashed of int

(* One coordinated attempt at [speed]: every node computes for
   [w/speed] and verifies for [v/speed] wall-clock. One pass over the
   per-node arrivals, drawn in node order: the earliest crash settles
   the attempt (the lower node on a tie); without one, every corrupted
   node fails the verification. *)
let attempt ~trace t ~machine ~rng ~w ~speed =
  let compute_wall = w /. speed in
  let verify_wall = t.v /. speed in
  let crash_node = ref (-1) and crash_at = ref (compute_wall +. verify_wall) in
  let corrupted = ref [] in
  for node = 0 to nodes t - 1 do
    if t.node_lambda_f.(node) > 0. then begin
      let arrival =
        Prng.Rng.exponential rng ~rate:t.node_lambda_f.(node)
      in
      if arrival < !crash_at then begin
        crash_node := node;
        crash_at := arrival
      end
    end;
    if t.node_lambda_s.(node) > 0. then begin
      let arrival =
        Prng.Rng.exponential rng ~rate:t.node_lambda_s.(node)
      in
      if arrival < compute_wall then corrupted := node :: !corrupted
    end
  done;
  let run = Executor.run_segment ~trace machine ~speed in
  if !crash_node >= 0 then begin
    run (Fail_stop { elapsed = !crash_at });
    run (Recovery { duration = t.r });
    Crashed !crash_node
  end
  else begin
    let passed = !corrupted = [] in
    run (Compute { speed; duration = compute_wall; work = w });
    run (Verify { speed; duration = verify_wall; passed });
    if passed then begin
      run (Checkpoint { duration = t.c });
      Success
    end
    else begin
      run (Recovery { duration = t.r });
      Silent !corrupted
    end
  end

let run_pattern ?trace t ~machine ~rng ~w ~sigma1 ~sigma2 () =
  if w <= 0. then invalid_arg "Platform_sim.run_pattern: non-positive w";
  if sigma1 <= 0. || sigma2 <= 0. then
    invalid_arg "Platform_sim.run_pattern: non-positive speed";
  let t0 = Machine.clock machine in
  let e0 = Machine.energy machine in
  let errors_by_node = Array.make (nodes t) 0 in
  let rec go ~speed ~re_executions ~silent ~fail_stop =
    match attempt ~trace t ~machine ~rng ~w ~speed with
    | Success ->
        {
          time = Machine.clock machine -. t0;
          energy = Machine.energy machine -. e0;
          re_executions;
          silent_errors = silent;
          fail_stop_errors = fail_stop;
          errors_by_node;
        }
    | Silent corrupted_nodes ->
        List.iter
          (fun node -> errors_by_node.(node) <- errors_by_node.(node) + 1)
          corrupted_nodes;
        go ~speed:sigma2 ~re_executions:(re_executions + 1)
          ~silent:(silent + 1) ~fail_stop
    | Crashed node ->
        errors_by_node.(node) <- errors_by_node.(node) + 1;
        go ~speed:sigma2 ~re_executions:(re_executions + 1) ~silent
          ~fail_stop:(fail_stop + 1)
  in
  go ~speed:sigma1 ~re_executions:0 ~silent:0 ~fail_stop:0

let run_application t ~power ~rng ~w_base ~pattern_w ~sigma1 ~sigma2 () =
  if w_base <= 0. then
    invalid_arg "Platform_sim.run_application: non-positive w_base";
  if pattern_w <= 0. then
    invalid_arg "Platform_sim.run_application: non-positive pattern_w";
  let machine = Machine.create power in
  let totals = Array.make (nodes t) 0 in
  let rec go remaining (re_executions, silent, fail_stop) =
    if remaining <= 0. then (re_executions, silent, fail_stop)
    else
      let w = Float.min remaining pattern_w in
      let o = run_pattern t ~machine ~rng ~w ~sigma1 ~sigma2 () in
      Array.iteri
        (fun i count -> totals.(i) <- totals.(i) + count)
        o.errors_by_node;
      go (remaining -. w)
        ( re_executions + o.re_executions,
          silent + o.silent_errors,
          fail_stop + o.fail_stop_errors )
  in
  let re_executions, silent, fail_stop = go w_base (0, 0, 0) in
  {
    time = Machine.clock machine;
    energy = Machine.energy machine;
    re_executions;
    silent_errors = silent;
    fail_stop_errors = fail_stop;
    errors_by_node = totals;
  }
