(** The performance-bound constraint of Theorem 1.

    Requiring [T(W)/W <= rho] under the first-order model is the
    quadratic condition [a W^2 + b W + c <= 0] with [a = l/(s1 s2)],
    [b = 1/s1 + l (R/s1 + V/(s1 s2)) - rho] and [c = C + V/s1]; the
    admissible pattern sizes form the window [W1, W2] between the
    roots. Equation (6) gives the smallest bound [rho_min] for which
    the window is non-empty. *)

type window = private {
  w_min : float;  (** Lower root W1; > 0 whenever the window exists. *)
  w_max : float;  (** Upper root W2 >= W1. *)
}

val coefficients :
  Params.t -> rho:float -> sigma1:float -> sigma2:float ->
  float * float * float
(** [(a, b, c)] of Theorem 1. [a > 0.] and [c >= 0.] always;
    feasibility requires [b <= -2 sqrt (a c)]. *)

val window :
  Params.t -> rho:float -> sigma1:float -> sigma2:float -> window option
(** Admissible pattern-size window, or [None] when the bound [rho] is
    unattainable for this speed pair. A tangent (double-root) contact
    yields a degenerate window with [w_min = w_max]. *)

val window_of_time : First_order.overhead -> rho:float -> window option
(** [window_of_time (First_order.time p ~sigma1 ~sigma2) ~rho] is
    [window p ~rho ~sigma1 ~sigma2], bit for bit, for a caller that has
    already computed the time overhead (Equation 2) of the pair. *)

val rho_min : Params.t -> sigma1:float -> sigma2:float -> float
(** Equation (6): the minimum performance bound
    [rho_(i,j) = 1/s_i + 2 sqrt ((C + V/s_i) l/(s_i s_j))
                 + l (R/s_i + V/(s_i s_j))]
    for which BiCrit admits a solution with first speed [s_i] and
    re-execution speed [s_j]. *)

val is_feasible :
  Params.t -> rho:float -> sigma1:float -> sigma2:float -> bool
(** [is_feasible p ~rho ~sigma1 ~sigma2] iff [rho >= rho_min]. *)

val contains : window -> float -> bool
(** [contains win w] iff [w] lies in [w_min, w_max]. *)

val clamp : window -> float -> float
(** Project a pattern size onto the window. *)
