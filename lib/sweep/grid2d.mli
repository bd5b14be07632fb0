(** Two-parameter sweeps.

    The paper varies one parameter at a time; interactions (e.g. "the
    second speed pays off when C is large *and* lambda is high") need a
    grid. Each cell carries the BiCrit optimum in both modes, so the
    two-speed saving, the winning pair, or feasibility can be mapped
    over any pair of axes. One two-speed solve per cell gives both:
    the single-speed optimum is its diagonal
    ({!Core.Bicrit.single_speed_best}). *)

type cell = {
  x : float;
  y : float;
  two_speed : Core.Optimum.solution option;
  single_speed : Core.Optimum.solution option;
}

type t = {
  label : string;
  rho : float;
  x_parameter : Parameter.t;
  y_parameter : Parameter.t;
  cells : cell array array;  (** [cells.(row).(col)]: row indexes the
                                 y axis (ascending), col the x axis. *)
}

val run :
  ?label:string -> ?pool:Parallel.Pool.t ->
  ?journal:Resilience.Checkpointed.journal ->
  ?on_resume:(entries:int -> dropped:bool -> unit) -> env:Core.Env.t ->
  rho:float -> x:Parameter.t * float list -> y:Parameter.t * float list ->
  unit -> t
(** Solve the grid, one task per cell on [pool] (default: the ambient
    {!Parallel.Pool.default}); cells land in fixed row-major slots, so
    the grid is bit-identical for any domain count. The two axes must
    be different parameters; [Rho] on an axis overrides the [rho]
    argument along that axis.

    With [journal], completed cells are checkpointed to disk and a
    resumed run recomputes only the missing ones (see
    {!Resilience.Checkpointed.init_array}, which also documents
    [on_resume]); the resumed grid is bit-identical to an
    uninterrupted one.
    @raise Invalid_argument if the axes repeat a parameter or either
    axis is empty. *)

val saving : cell -> float option
(** Two-speed relative saving in a cell, [None] if either mode is
    infeasible or the single-speed energy overhead is zero (the ratio
    would be undefined). *)

val max_saving : t -> (float * float * float) option
(** [(x, y, saving)] of the cell with the largest saving, if any cell
    is feasible in both modes. *)

val feasible_fraction : t -> float
(** Fraction of cells where the two-speed problem is feasible. *)

val to_rows : t -> float array list
(** Flat rows [x; y; saving; sigma1; sigma2; w_opt; energy] (NaN where
    infeasible), row-major. *)

val column_names : string list

val render_heatmap :
  ?levels:string -> value:(cell -> float option) -> t -> string
(** ASCII heatmap of [value] over the grid: values are binned linearly
    onto [levels] (default [" .:-=+*#%@"], low to high); infeasible
    cells print ['?']. Rows are printed with the y axis increasing
    upwards; axis ranges are annotated. *)
