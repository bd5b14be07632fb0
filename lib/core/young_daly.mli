(** Classical checkpointing-period baselines (Young 1974, Daly 2006).

    The paper positions its result against these: for fail-stop errors
    the time-optimal period is [sqrt (2 C / lambda)]; for silent errors
    with verified checkpoints it is [sqrt ((V + C) / lambda)] — the
    factor 2 disappears because a silent error always wastes the whole
    period, while a fail-stop error wastes half on average. *)

val failstop_period : c:float -> lambda:float -> float
(** Young/Daly: [sqrt (2 c / lambda)] — optimal work between
    checkpoints at unit speed under fail-stop errors. The same function
    as {!Numerics.Young_daly.failstop_period}, which the run journal
    also uses.
    @raise Invalid_argument on non-positive [c] or [lambda]. *)

val silent_period : c:float -> v:float -> lambda:float -> float
(** [sqrt ((v +. c) /. lambda)] — optimal period with silent errors and
    verified checkpoints, at unit speed.
    @raise Invalid_argument on negative [v], non-positive [c] or
    [lambda]. *)

val silent_period_at_speed : Params.t -> sigma:float -> float
(** Speed-aware single-speed generalization from Equation (2) with
    [s1 = s2 = sigma]: [W* = sigma * sqrt ((C + V/sigma) / lambda)].
    Reduces to {!silent_period} at [sigma = 1.]. *)

val time_overhead_at : Params.t -> sigma:float -> w:float -> float
(** First-order time overhead of period [w] at speed [sigma] (silent
    errors, single speed) — for comparing baseline periods. *)

val failstop_expected_time :
  c:float -> r:float -> lambda:float -> sigma:float -> w:float -> float
(** Exact expected pattern time under fail-stop errors only (no
    verification), single speed:
    [C + (e^(l w / sigma) - 1) (1/l + R)] — the classical renewal
    formula, also the [lambda_s = 0], [V = 0], [sigma2 = sigma1] limit
    of the mixed model of {!Mixed}.
    @raise Invalid_argument on non-positive [lambda], [sigma] or [w],
    or negative [c] or [r]. *)
