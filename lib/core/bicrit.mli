(** The BiCrit bi-criteria solver (Section 3).

    Minimize the expected energy overhead [E(W,s1,s2)/W] subject to the
    time-overhead bound [T(W,s1,s2)/W <= rho], over the pattern size W
    and the speed pair drawn from the environment's discrete speed set.
    The paper's O(K^2) procedure: discard the pairs with
    [rho < rho_(i,j)] (Eq. 6), solve Theorem 1 on the rest, keep the
    pair with the smallest energy overhead. *)

type mode =
  | Two_speeds  (** Free re-execution speed — the paper's proposal. *)
  | Single_speed
      (** Baseline: constrain [sigma2 = sigma1] (the dotted
          one-speed curves of the paper's figures). *)

type result = {
  best : Optimum.solution;  (** The winning speed pair and pattern. *)
  candidates : Optimum.solution list;
      (** Every feasible pair's solution, in speed-pair enumeration
          order; the tables of Section 4.2 read per-[sigma1] rows out of
          this list. *)
}

val solve :
  ?mode:mode -> ?pool:Parallel.Pool.t ->
  ?journal:Resilience.Checkpointed.journal ->
  ?on_resume:(entries:int -> dropped:bool -> unit) -> Env.t -> rho:float ->
  result option
(** [solve env ~rho] is [None] when no speed pair meets the bound.
    Ties on energy overhead keep the pair enumerated first
    (sigma1-major, then sigma2), making results deterministic.
    Default mode: [Two_speeds].

    Speed sets large enough that the O(K^2) pair enumeration dominates
    (128 pairs and up) are solved on [pool] (default: the ambient
    {!Parallel.Pool.default}); candidates stay in enumeration order
    and the result is bit-identical to the sequential solve for any
    domain count. Smaller sets run sequentially — unless [journal] is
    given, which always takes the checkpointing path: completed pairs
    are persisted and a resumed solve recomputes only the missing ones
    (see {!Resilience.Checkpointed.init_array}, which also documents
    [on_resume]).
    @raise Invalid_argument if [rho] is not a finite number [> 0.]. *)

val best_second_speed :
  Env.t -> rho:float -> sigma1:float -> Optimum.solution option
(** For a fixed first speed, the best feasible re-execution speed — one
    row of the Section 4.2 tables. [None] when no second speed is
    feasible for this [sigma1].
    @raise Invalid_argument if [rho] is not a finite number [> 0.]. *)

val min_feasible_rho : Env.t -> float
(** The smallest performance bound any speed pair can meet:
    [min over (i,j) of rho_(i,j)]. Below this, {!solve} returns [None]. *)

val single_speed_best :
  Env.t -> rho:float -> result -> Optimum.solution option
(** [single_speed_best env ~rho result], where [result] is
    [solve env ~rho]'s, is the one-speed optimum read off the diagonal
    [sigma2 = sigma1] of [result]'s candidates instead of a second
    solve. It equals [(solve ~mode:Single_speed env ~rho).best] bit
    for bit, [None] included: the single-speed candidates are exactly
    that diagonal, in the same order, and the minimum is taken with
    {!solve}'s tie rule (first enumerated wins).

    When the diagonal pair is [result.best] itself, that one pair is
    solved again, so the record returned shares no block with
    [result.best]: a record holding both marshals (with sharing, as
    run journals do) exactly as two independent solves would. *)

val energy_saving : result -> float option
(** Relative energy saving of [result]'s optimum over its one-speed
    optimum ({!single_speed_best}), [(E1 - E2) / E1]; [None] when no
    diagonal pair is feasible or [E1] is zero (the ratio would be
    undefined). *)

val energy_saving_vs_single : Env.t -> rho:float -> float option
(** {!energy_saving} of the two-speed solve: one solve, not two;
    [None] when the problem is infeasible. This is the paper's
    headline "up to 35%" metric. *)
