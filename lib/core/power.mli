(** Power model of Section 2.1.

    Computing at speed [sigma] draws [Pidle + Pcpu(sigma)] with
    [Pcpu(sigma) = kappa * sigma^3] (Yao/Demers/Shenker cubic law);
    checkpointing and recovering draw [Pidle + Pio]. All powers in mW,
    matching the paper's Table 2 units. *)

type t = private {
  kappa : float;  (** Dynamic power coefficient, mW; >= 0. *)
  p_idle : float;  (** Static power, mW; >= 0. *)
  p_io : float;  (** Dynamic I/O power, mW; >= 0. *)
}

val make : kappa:float -> p_idle:float -> p_io:float -> t
(** @raise Invalid_argument on negative or non-finite components. *)

val of_processor : ?p_io:float -> Platforms.Processor.t -> t
(** Power model of a Table 2 processor; [p_io] defaults to the paper's
    rule, the dynamic CPU power at the processor's slowest speed. *)

val of_config : Platforms.Config.t -> t
(** Power model of a full configuration (its [p_io] is already frozen). *)

val cpu : t -> float -> float
(** [cpu t sigma] is the dynamic compute power [kappa * sigma^3]. *)

val compute_total : t -> float -> float
(** [compute_total t sigma] is [p_idle + cpu t sigma] — the power drawn
    while computing or verifying at speed [sigma]. *)

val io_total : t -> float
(** [p_idle + p_io] — the power drawn during checkpoint and recovery. *)

val with_p_idle : t -> float -> t
val with_p_io : t -> float -> t

val add_text : Buffer.t -> t -> unit
(** Appends ["{P(s)=%g s^3 + %g mW; Pio=%.4g mW}"], the one definition
    of the power model's text; {!pp} prints the same bytes. *)

val pp : Format.formatter -> t -> unit
