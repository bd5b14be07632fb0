(** One sweep = one panel row of a paper figure.

    For each sample of the swept parameter, each point carries the
    BiCrit optimum with a free re-execution speed (the paper's
    proposal) and with the single-speed restriction (the dotted
    baseline curves). One two-speed solve gives both, the second
    being its diagonal ({!Core.Bicrit.single_speed_best}), so the three
    paper panels — speeds, optimal pattern size, energy overhead —
    are projections of one series. *)

type point = {
  x : float;  (** Value of the swept parameter. *)
  two_speed : Core.Optimum.solution option;  (** None = infeasible. *)
  single_speed : Core.Optimum.solution option;
}

type t = {
  parameter : Parameter.t;
  label : string;  (** Configuration name, e.g. "Atlas/Crusoe". *)
  rho : float;  (** Performance bound in force (except for Rho sweeps). *)
  points : point list;
}

val run :
  ?label:string -> env:Core.Env.t -> rho:float -> parameter:Parameter.t ->
  xs:float list -> unit -> t
(** Solve BiCrit along the axis. [rho] is the bound used for every
    non-[Rho] parameter (the paper's default is 3). *)

val saving : point -> float option
(** Relative energy saving of two speeds over one at this point,
    [(E1 - E2) / E1]; [None] if either problem is infeasible. *)

val max_saving : t -> float
(** Largest saving along the series (0. if never feasible) — the
    paper's "up to 35%" summary statistic. *)

val feasible_fraction : t -> float
(** Fraction of points where the two-speed problem is feasible. *)

val speeds_distinct_fraction : t -> float
(** Fraction of feasible points where the optimal pair uses two
    genuinely different speeds. *)

val column_names : string list
(** Header for {!to_rows}: x, s1, s2, Wopt, E/W, T/W, then the
    single-speed s, Wopt, E/W (NaN when infeasible). *)

val to_rows : t -> float array list
(** Numeric rows (one per point) matching {!column_names}. *)
