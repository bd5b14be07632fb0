(** Multi-node platform simulator.

    The paper works with an aggregate abstraction — "each speed is the
    aggregated speed of all processors in the platform" — where errors
    on any node corrupt the coordinated pattern. This module simulates
    that platform explicitly: each node carries its own Poisson error
    processes; a pattern computes for [w /. sigma] wall-clock seconds
    on all nodes simultaneously; the earliest fail-stop arrival across
    nodes (one scan over the per-node draws) kills the attempt, and
    a silent error on any node is caught by the coordinated
    end-of-pattern verification. By superposition of Poisson processes
    this is distributionally the aggregate model with the *summed*
    rates — which the Monte-Carlo tests verify, justifying the paper's
    abstraction even for heterogeneous nodes (e.g. one flaky board). *)

type t = private {
  node_lambda_f : float array;  (** Per-node fail-stop rates, per second. *)
  node_lambda_s : float array;  (** Per-node silent rates, per second. *)
  c : float;
  r : float;
  v : float;
}

val make :
  nodes:int -> node_lambda_f:float -> node_lambda_s:float -> c:float ->
  ?r:float -> v:float -> unit -> t
(** Homogeneous platform: every node has the same rates. [r] defaults
    to [c].
    @raise Invalid_argument if [nodes < 1], rates are negative or both
    zero, or times are negative. *)

val heterogeneous :
  node_lambda_f:float array -> node_lambda_s:float array -> c:float ->
  ?r:float -> v:float -> unit -> t
(** Per-node rates (the two arrays must have equal positive length).
    @raise Invalid_argument on length mismatch, empty arrays, negative
    rates, or an all-zero platform. *)

val nodes : t -> int

val aggregate_model : t -> Core.Mixed.t
(** The equivalent aggregate error model: summed per-node rates. *)

type outcome = {
  time : float;
  energy : float;
  re_executions : int;
  silent_errors : int;  (** Patterns re-executed due to silent errors
                            (counted once per failed attempt even if
                            several nodes were hit). *)
  fail_stop_errors : int;
  errors_by_node : int array;
      (** Per-node count of decisive errors (the crashing node, or
          every silently-corrupted node of a failed attempt). *)
}

val run_pattern :
  ?trace:Trace.builder -> t -> machine:Machine.t -> rng:Prng.Rng.t ->
  w:float -> sigma1:float -> sigma2:float -> unit -> outcome
(** Execute one coordinated pattern to successful checkpoint.
    @raise Invalid_argument on non-positive [w] or speeds. *)

val run_application :
  t -> power:Core.Power.t -> rng:Prng.Rng.t -> w_base:float ->
  pattern_w:float -> sigma1:float -> sigma2:float -> unit -> outcome
(** Whole divisible application (last pattern takes the remainder);
    [time] is the makespan and the error counters accumulate. *)
