(** Operational executor of the paper's execution model (Figure 1).

    Runs patterns attempt by attempt: first execution at [sigma1],
    every re-execution at [sigma2]; a fail-stop error aborts the
    attempt where it strikes, a silent error is caught by the next
    verification; recovery precedes every re-execution and a checkpoint
    follows every verified pattern. The error model is a
    {!Core.Mixed.t} ([lambda_f = 0.] gives the silent-only model of
    Sections 2-4).

    Patterns may carry [verifications = m >= 1] intermediate
    verifications (the {!Core.Multi_verif} extension): the work is cut
    into [m] equal segments, each followed by a verification, so a
    silent error is caught at the end of its segment instead of the
    end of the pattern. [m = 1] is exactly the paper's pattern.

    Fault processes default to Poisson draws at the model's rates; pass
    [fail_process] / [silent_process] (e.g. {!Fault.scripted}) for
    deterministic failure injection. *)

type pattern_outcome = {
  time : float;  (** Wall-clock time the pattern took, seconds. *)
  energy : float;  (** Energy it consumed, mJ. *)
  re_executions : int;  (** Number of failed attempts. *)
  silent_errors : int;
  fail_stop_errors : int;
}

type outcome = {
  makespan : float;  (** Total application wall-clock time, seconds. *)
  total_energy : float;  (** Total energy, mJ. *)
  patterns : int;  (** Number of patterns executed. *)
  re_executions : int;
  silent_errors : int;
  fail_stop_errors : int;
}

val run_segment :
  trace:Trace.builder option -> Machine.t -> speed:float -> Trace.segment ->
  unit
(** Run one segment of an attempt at [speed]: record it in [trace] at
    the machine's clock, then advance the machine through it inside
    its paper-phase span ({!Tracing.Tracer.phase_begin}). [Compute] and
    [Fail_stop] are {!Tracing.Span.Work}, [Verify] is [Verify],
    [Checkpoint] is [Checkpoint] and [Recovery] is [Recover]. Compute,
    verification and a fail-stop's [elapsed] run at [speed];
    checkpoint and recovery are I/O. Both simulators' attempts are
    sequences of these calls. *)

val run_pattern :
  ?trace:Trace.builder -> ?verifications:int -> ?fail_process:Fault.t ->
  ?silent_process:Fault.t -> model:Core.Mixed.t -> machine:Machine.t ->
  rng:Prng.Rng.t -> w:float -> sigma1:float -> sigma2:float -> unit ->
  pattern_outcome
(** Execute one pattern of [w] work units to successful checkpoint on
    [machine] (whose clock/energy advance accordingly).
    @raise Invalid_argument on non-positive [w] or speeds, or
    [verifications < 1]. *)

val run_application :
  ?trace:Trace.builder -> ?verifications:int -> ?fail_process:Fault.t ->
  ?silent_process:Fault.t -> model:Core.Mixed.t -> power:Core.Power.t ->
  rng:Prng.Rng.t -> w_base:float -> pattern_w:float -> sigma1:float ->
  sigma2:float -> unit -> outcome
(** Execute a divisible application of [w_base] total work split into
    patterns of [pattern_w] (the last pattern takes the remainder).
    Injected [fail_process] / [silent_process] are shared across all
    patterns, so one scripted schedule can span the application.
    @raise Invalid_argument on non-positive [w_base] or [pattern_w]. *)
