let failstop_period ~c ~lambda =
  let require_positive name x =
    if x <= 0. || not (Float.is_finite x) then
      invalid_arg ("Young_daly: " ^ name ^ " must be positive and finite")
  in
  require_positive "c" c;
  require_positive "lambda" lambda;
  sqrt (2. *. c /. lambda)
