type solution = {
  sigma1 : float;
  sigma2 : float;
  w_opt : float;
  w_energy : float;
  window : Feasibility.window;
  energy_overhead : float;
  time_overhead : float;
  bound_active : bool;
}

let w_energy p pw ~sigma1 ~sigma2 =
  First_order.unconstrained_minimizer (First_order.energy p pw ~sigma1 ~sigma2)

(* Each overhead is computed once and feeds everything derived from
   it: the time overhead the window and the time evaluation, the
   energy overhead We and the energy evaluation. Same expressions in
   the same order as [Feasibility.window] and [w_energy], so the same
   bits. *)
let solve_pair p pw ~rho ~sigma1 ~sigma2 =
  let time = First_order.time p ~sigma1 ~sigma2 in
  match Feasibility.window_of_time time ~rho with
  | None -> None
  | Some window ->
      let energy = First_order.energy p pw ~sigma1 ~sigma2 in
      let we = First_order.unconstrained_minimizer energy in
      let w_opt = Feasibility.clamp window we in
      Some
        {
          sigma1;
          sigma2;
          w_opt;
          w_energy = we;
          window;
          energy_overhead = First_order.eval energy ~w:w_opt;
          time_overhead = First_order.eval time ~w:w_opt;
          bound_active = not (Feasibility.contains window we);
        }

let exact_overheads p pw s =
  ( Exact.time_overhead p ~w:s.w_opt ~sigma1:s.sigma1 ~sigma2:s.sigma2,
    Exact.energy_overhead p pw ~w:s.w_opt ~sigma1:s.sigma1 ~sigma2:s.sigma2 )

let pp_solution ppf s =
  Format.fprintf ppf
    "(s1=%g, s2=%g): Wopt=%.1f (We=%.1f, window=[%.1f, %.1f])@ E/W=%.2f \
     T/W=%.4f%s"
    s.sigma1 s.sigma2 s.w_opt s.w_energy s.window.Feasibility.w_min
    s.window.Feasibility.w_max s.energy_overhead s.time_overhead
    (if s.bound_active then " [bound active]" else "")
