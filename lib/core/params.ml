type t = { lambda : float; c : float; r : float; v : float }

let check name x =
  if not (Float.is_finite x) || x < 0. then
    invalid_arg ("Params: " ^ name ^ " must be a non-negative finite float")

let make ~lambda ~c ?r ~v () =
  let r = Option.value r ~default:c in
  if not (Float.is_finite lambda) || lambda <= 0. then
    invalid_arg "Params: lambda must be a positive finite float";
  check "c" c;
  check "r" r;
  check "v" v;
  { lambda; c; r; v }

let of_platform ?r (p : Platforms.Platform.t) =
  make ~lambda:p.lambda ~c:p.c ?r ~v:p.v ()

let mtbf t = 1. /. t.lambda
let with_lambda t lambda = make ~lambda ~c:t.c ~r:t.r ~v:t.v ()

let with_c ?(keep_r = false) t c =
  let r = if keep_r then Some t.r else Some c in
  make ~lambda:t.lambda ~c ?r ~v:t.v ()

let with_r t r = make ~lambda:t.lambda ~c:t.c ~r ~v:t.v ()
let with_v t v = make ~lambda:t.lambda ~c:t.c ~r:t.r ~v ()

let add_text b t =
  Buffer.add_string b "{lambda=";
  Report.Decimal.add_general b 4 t.lambda;
  Buffer.add_string b "; C=";
  Report.Decimal.add_general b 6 t.c;
  Buffer.add_string b "; R=";
  Report.Decimal.add_general b 6 t.r;
  Buffer.add_string b "; V=";
  Report.Decimal.add_general b 6 t.v;
  Buffer.add_char b '}'

let pp ppf t =
  let b = Buffer.create 64 in
  add_text b t;
  Format.pp_print_string ppf (Buffer.contents b)
