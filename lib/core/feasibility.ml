type window = { w_min : float; w_max : float }

let coefficients p ~rho ~sigma1 ~sigma2 =
  let o = First_order.time p ~sigma1 ~sigma2 in
  (o.linear, o.const -. rho, o.inverse)

let rho_min (p : Params.t) ~sigma1 ~sigma2 =
  let o = First_order.time p ~sigma1 ~sigma2 in
  First_order.minimum_value o

let is_feasible p ~rho ~sigma1 ~sigma2 = rho >= rho_min p ~sigma1 ~sigma2

let window_of_time (o : First_order.overhead) ~rho =
  (* Feasibility needs b <= -2 sqrt(ac): with a > 0 and c >= 0, real
     roots with b < 0 are automatically both positive (sum -b/a > 0,
     product c/a >= 0). The rho >= rho_min test is the same condition
     expressed without the discriminant, and is better conditioned. *)
  if not (rho >= First_order.minimum_value o) then None
  else
    match
      Numerics.Roots.quadratic ~a:o.linear ~b:(o.const -. rho) ~c:o.inverse
    with
    | Numerics.Roots.No_real_root -> None
    | Numerics.Roots.Double_root w ->
        if w > 0. then Some { w_min = w; w_max = w } else None
    | Numerics.Roots.Two_roots (w1, w2) ->
        if w2 <= 0. then None
        else Some { w_min = Float.max w1 Float.min_float; w_max = w2 }

let window p ~rho ~sigma1 ~sigma2 =
  window_of_time (First_order.time p ~sigma1 ~sigma2) ~rho

let contains win w = w >= win.w_min && w <= win.w_max

let clamp win w = Float.min win.w_max (Float.max win.w_min w)
