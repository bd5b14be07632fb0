(** Resilience parameters of the execution model (Section 2.1).

    Groups the silent-error rate [lambda] (per second), checkpoint time
    [c], recovery time [r] and full-speed verification time [v] (all in
    seconds). The verification at speed [sigma] takes [v /. sigma]
    seconds; checkpoint and recovery are I/O-bound and do not scale
    with speed. *)

type t = private {
  lambda : float;  (** Silent error rate, errors per second; > 0. *)
  c : float;  (** Checkpoint time, seconds; >= 0. *)
  r : float;  (** Recovery time, seconds; >= 0. *)
  v : float;  (** Verification time at unit speed, seconds; >= 0. *)
}

val make : lambda:float -> c:float -> ?r:float -> v:float -> unit -> t
(** [make ~lambda ~c ~v ()] builds a parameter set; [r] defaults to [c]
    (the paper's Section 4.1 convention: a read costs a write).
    @raise Invalid_argument if [lambda <= 0.] or any time is negative
    or non-finite. *)

val of_platform : ?r:float -> Platforms.Platform.t -> t
(** Parameters of a Table 1 platform. *)

val mtbf : t -> float
(** Platform MTBF, [1. /. lambda]. *)

val with_lambda : t -> float -> t
(** Functional update used by sweeps; same validation as {!make}. *)

val with_c : ?keep_r:bool -> t -> float -> t
(** [with_c t c] sets the checkpoint time. Unless [keep_r] is [true],
    [r] follows [c] (the paper sweeps C with R = C). *)

val with_r : t -> float -> t
val with_v : t -> float -> t

val add_text : Buffer.t -> t -> unit
(** Appends ["{lambda=%.4g; C=%g; R=%g; V=%g}"], the one definition
    of the parameters' text; {!pp} prints the same bytes. *)

val pp : Format.formatter -> t -> unit
