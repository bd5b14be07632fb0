(** Replicated simulation runs and model-vs-simulation comparison.

    Each replica draws from an independent xoshiro256** subsequence
    (2^128-step jumps), so replicas are statistically independent and
    every experiment is reproducible from its seed.

    Replicas run on the parallel engine ({!Parallel.Pool}): the
    subsequences are split from the root seed {e before} dispatch —
    one stream per replica — so the domain count never changes the
    random sequence any replica consumes, and every estimate below is
    bit-identical to the sequential run for the same seed. *)

type estimate = {
  time : Numerics.Stats.summary;
  energy : Numerics.Stats.summary;
  re_executions_mean : float;
}

type check = {
  label : string;
  expected : float;  (** Model prediction. *)
  observed : Numerics.Stats.summary;  (** Simulated distribution. *)
  z : float;  (** Standard scores of the discrepancy; 0 when exact. *)
  ok : bool;  (** Expected value inside the wide confidence interval. *)
}

type pattern_checks = {
  pattern_time : check;  (** vs {!Core.Mixed.expected_time}. *)
  pattern_energy : check;  (** vs {!Core.Mixed.expected_energy}. *)
  re_executions : check;  (** vs the closed form [(1 - P1) / P2]. *)
}
(** The three projections of one simulated outcome set. *)

val replicate :
  ?pool:Parallel.Pool.t -> ?journal:Resilience.Checkpointed.journal ->
  ?on_resume:(entries:int -> dropped:bool -> unit) -> replicas:int ->
  seed:int -> (Prng.Rng.t -> 'a) -> 'a array
(** [replicate ~replicas ~seed run] pre-splits [replicas] independent
    streams from [seed] and maps [run] over them on [pool] (default:
    the ambient pool); slot [i] always holds the outcome of stream
    [i].

    With [journal], completed replicas are checkpointed to disk and a
    resumed run recomputes only the missing ones (see
    {!Resilience.Checkpointed.init_array}, which also documents
    [on_resume]); journaled, resumed and plain runs of the same seed
    are bit-identical. @raise Invalid_argument if [replicas < 1]. *)

val pattern_estimate :
  ?pool:Parallel.Pool.t -> ?journal:Resilience.Checkpointed.journal ->
  ?on_resume:(entries:int -> dropped:bool -> unit) -> replicas:int -> seed:int -> model:Core.Mixed.t ->
  power:Core.Power.t -> w:float -> sigma1:float -> sigma2:float -> unit ->
  estimate
(** Simulate one pattern [replicas] times.
    @raise Invalid_argument if [replicas < 1]. *)

val application_estimate :
  ?pool:Parallel.Pool.t -> ?journal:Resilience.Checkpointed.journal ->
  ?on_resume:(entries:int -> dropped:bool -> unit) -> replicas:int -> seed:int -> model:Core.Mixed.t ->
  power:Core.Power.t -> w_base:float -> pattern_w:float -> sigma1:float ->
  sigma2:float -> unit -> estimate
(** Simulate the full divisible application [replicas] times; [time]
    summarizes makespans and [energy] total energies. *)

val checks :
  ?z:float -> ?pool:Parallel.Pool.t -> ?journal:Resilience.Checkpointed.journal ->
  ?on_resume:(entries:int -> dropped:bool -> unit) -> replicas:int -> seed:int ->
  model:Core.Mixed.t -> power:Core.Power.t -> w:float -> sigma1:float ->
  sigma2:float -> unit -> pattern_checks
(** All three closed-form comparisons from a {e single} simulation
    pass: simulated mean pattern time against
    {!Core.Mixed.expected_time}, energy against
    {!Core.Mixed.expected_energy}, and re-executions against the
    closed form [(1 - P1) / P2] implied by the recursion (equal to
    {!Core.Exact.expected_reexecutions} when [lambda_f = 0.]). [z]
    (default 3.89, ~1e-4 two-sided) sets the acceptance width. *)

val pp_check : Format.formatter -> check -> unit
