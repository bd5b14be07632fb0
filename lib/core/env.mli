(** A complete model environment: resilience parameters, power model
    and the discrete DVFS speed set [S = {sigma_1 .. sigma_K}].

    This is the unit the BiCrit solver and the sweep engine operate on;
    all the functional [with_*] updates exist so that the paper's
    figures (which vary one parameter at a time) are one-liners. *)

type t = private {
  params : Params.t;
  power : Power.t;
  speeds : float array;  (** Strictly increasing, all > 0. *)
}

val make : params:Params.t -> power:Power.t -> speeds:float list -> t
(** @raise Invalid_argument if [speeds] is empty, non-increasing, or
    contains a non-positive or non-finite value. *)

val of_config : Platforms.Config.t -> t
(** Environment of one of the paper's eight configurations. *)

val of_config_file : Platforms.Config_file.t -> t
(** Environment from a parsed custom-machine file; defaults [r = c]
    and [p_io = kappa * (min speed)^3] follow the paper's conventions.
    @raise Invalid_argument if the file's values violate the model
    invariants (same checks as {!make}). *)

val speed_pairs : t -> (float * float) list
(** All K^2 ordered pairs (sigma_1, sigma_2), first-speed major. *)

val with_params : t -> Params.t -> t
val with_power : t -> Power.t -> t
val with_lambda : t -> float -> t
val with_c : t -> float -> t
(** Sets C and keeps R = C, the convention of the paper's C-sweeps. *)

val with_v : t -> float -> t
val with_p_idle : t -> float -> t
val with_p_io : t -> float -> t

val add_text : Buffer.t -> t -> unit
(** Appends the three-line environment dump, without a final newline:
    ["params: "] and {!Params.add_text}, ["power: "] and
    {!Power.add_text}, ["speeds: "] and the speeds in [%g] separated by
    [", "]. No line is ever wrapped. *)

val pp : Format.formatter -> t -> unit
(** {!add_text}'s lines in a vertical box. *)
