type pattern_outcome = {
  time : float;
  energy : float;
  re_executions : int;
  silent_errors : int;
  fail_stop_errors : int;
}

type outcome = {
  makespan : float;
  total_energy : float;
  patterns : int;
  re_executions : int;
  silent_errors : int;
  fail_stop_errors : int;
}

type attempt_result = Success | Silent_detected | Fail_stop_struck

let run_segment ~trace machine ~speed (segment : Trace.segment) =
  (match trace with
  | None -> ()
  | Some b -> Trace.record b ~at:(Machine.clock machine) segment);
  let phase : Tracing.Span.category =
    match segment with
    | Compute _ | Fail_stop _ -> Work
    | Verify _ -> Verify
    | Checkpoint _ -> Checkpoint
    | Recovery _ -> Recover
  in
  Tracing.Tracer.phase_begin phase;
  (match segment with
  | Compute { duration; _ }
  | Verify { duration; _ }
  | Fail_stop { elapsed = duration } ->
      Machine.advance_compute machine ~speed ~duration
  | Checkpoint { duration } | Recovery { duration } ->
      Machine.advance_io machine ~duration);
  Tracing.Tracer.phase_end phase

(* One attempt at [speed]: m segments of w/m work, each verified; stop
   at the first fail-stop strike or failed verification; checkpoint
   after the m-th verification passes. The machine advances through
   everything up to and including the checkpoint (success) or the
   recovery (failure). *)
let attempt ~trace ~(model : Core.Mixed.t) ~machine ~rng ~fail_process
    ~silent_process ~verifications ~w ~speed =
  let segment_work = w /. float_of_int verifications in
  let compute_time = segment_work /. speed in
  let verify_time = model.v /. speed in
  let exposure = compute_time +. verify_time in
  (* Each segment is one call: recorded, then run inside its phase
     span. Full applications, not a closure per attempt: this is the
     Monte-Carlo replica path. *)
  let rec segment i =
    match Fault.strikes_within fail_process rng ~duration:exposure with
    | Some elapsed ->
        run_segment ~trace machine ~speed (Fail_stop { elapsed });
        run_segment ~trace machine ~speed (Recovery { duration = model.r });
        Fail_stop_struck
    | None ->
        let silent =
          Fault.strikes_within silent_process rng ~duration:compute_time
          <> None
        in
        run_segment ~trace machine ~speed
          (Compute { speed; duration = compute_time; work = segment_work });
        run_segment ~trace machine ~speed
          (Verify { speed; duration = verify_time; passed = not silent });
        if silent then begin
          run_segment ~trace machine ~speed (Recovery { duration = model.r });
          Silent_detected
        end
        else if i < verifications then segment (i + 1)
        else begin
          run_segment ~trace machine ~speed (Checkpoint { duration = model.c });
          Success
        end
  in
  segment 1

let run_pattern ?trace ?(verifications = 1) ?fail_process ?silent_process
    ~model ~machine ~rng ~w ~sigma1 ~sigma2 () =
  if w <= 0. then invalid_arg "Executor.run_pattern: non-positive w";
  if sigma1 <= 0. || sigma2 <= 0. then
    invalid_arg "Executor.run_pattern: non-positive speed";
  if verifications < 1 then
    invalid_arg "Executor.run_pattern: verifications < 1";
  let fail_process =
    match fail_process with
    | Some p -> p
    | None -> Fault.create ~rate:model.Core.Mixed.lambda_f
  in
  let silent_process =
    match silent_process with
    | Some p -> p
    | None -> Fault.create ~rate:model.Core.Mixed.lambda_s
  in
  let t0 = Machine.clock machine in
  let e0 = Machine.energy machine in
  let rec go ~speed ~re_executions ~silent ~fail_stop =
    let one_attempt () =
      attempt ~trace ~model ~machine ~rng ~fail_process ~silent_process
        ~verifications ~w ~speed
    in
    let result =
      (* Re-executions (the paper's sigma2 attempts) get their own
         phase span so the flame view separates first-try work from
         re-executed work. *)
      if re_executions > 0 then begin
        Tracing.Tracer.phase_begin Tracing.Span.Reexec;
        let r = one_attempt () in
        Tracing.Tracer.phase_end Tracing.Span.Reexec;
        r
      end
      else one_attempt ()
    in
    match result with
    | Success ->
        {
          time = Machine.clock machine -. t0;
          energy = Machine.energy machine -. e0;
          re_executions;
          silent_errors = silent;
          fail_stop_errors = fail_stop;
        }
    | Silent_detected ->
        go ~speed:sigma2 ~re_executions:(re_executions + 1)
          ~silent:(silent + 1) ~fail_stop
    | Fail_stop_struck ->
        go ~speed:sigma2 ~re_executions:(re_executions + 1) ~silent
          ~fail_stop:(fail_stop + 1)
  in
  go ~speed:sigma1 ~re_executions:0 ~silent:0 ~fail_stop:0

let run_application ?trace ?verifications ?fail_process ?silent_process
    ~model ~power ~rng ~w_base ~pattern_w ~sigma1 ~sigma2 () =
  if w_base <= 0. then
    invalid_arg "Executor.run_application: non-positive w_base";
  if pattern_w <= 0. then
    invalid_arg "Executor.run_application: non-positive pattern_w";
  (* Injected processes are shared across patterns (a scripted schedule
     spans the whole application); the Poisson defaults are memoryless,
     so sharing them is equivalent to per-pattern creation. *)
  let fail_process =
    match fail_process with
    | Some p -> p
    | None -> Fault.create ~rate:model.Core.Mixed.lambda_f
  in
  let silent_process =
    match silent_process with
    | Some p -> p
    | None -> Fault.create ~rate:model.Core.Mixed.lambda_s
  in
  let machine = Machine.create power in
  let rec go remaining acc =
    if remaining <= 0. then acc
    else
      let w = Float.min remaining pattern_w in
      let p =
        run_pattern ?trace ?verifications ~fail_process ~silent_process
          ~model ~machine ~rng ~w ~sigma1 ~sigma2 ()
      in
      go (remaining -. w)
        {
          acc with
          patterns = acc.patterns + 1;
          re_executions = acc.re_executions + p.re_executions;
          silent_errors = acc.silent_errors + p.silent_errors;
          fail_stop_errors = acc.fail_stop_errors + p.fail_stop_errors;
        }
  in
  let acc =
    go w_base
      {
        makespan = 0.;
        total_energy = 0.;
        patterns = 0;
        re_executions = 0;
        silent_errors = 0;
        fail_stop_errors = 0;
      }
  in
  {
    acc with
    makespan = Machine.clock machine;
    total_energy = Machine.energy machine;
  }
