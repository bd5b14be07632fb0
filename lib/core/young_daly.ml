let require_positive name x =
  if x <= 0. || not (Float.is_finite x) then
    invalid_arg ("Young_daly: " ^ name ^ " must be positive and finite")

let require_non_negative name x =
  if x < 0. || not (Float.is_finite x) then
    invalid_arg ("Young_daly: " ^ name ^ " must be non-negative and finite")

let failstop_period = Numerics.Young_daly.failstop_period

let silent_period ~c ~v ~lambda =
  require_positive "c" c;
  require_non_negative "v" v;
  require_positive "lambda" lambda;
  sqrt ((v +. c) /. lambda)

let silent_period_at_speed (p : Params.t) ~sigma =
  require_positive "sigma" sigma;
  First_order.unconstrained_minimizer
    (First_order.time p ~sigma1:sigma ~sigma2:sigma)

let time_overhead_at (p : Params.t) ~sigma ~w =
  require_positive "sigma" sigma;
  First_order.eval (First_order.time p ~sigma1:sigma ~sigma2:sigma) ~w

let failstop_expected_time ~c ~r ~lambda ~sigma ~w =
  require_non_negative "c" c;
  require_non_negative "r" r;
  require_positive "lambda" lambda;
  require_positive "sigma" sigma;
  require_positive "w" w;
  c +. (Float.expm1 (lambda *. w /. sigma) *. ((1. /. lambda) +. r))
