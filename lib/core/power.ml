type t = { kappa : float; p_idle : float; p_io : float }

let check name x =
  if not (Float.is_finite x) || x < 0. then
    invalid_arg ("Power: " ^ name ^ " must be a non-negative finite float")

let make ~kappa ~p_idle ~p_io =
  check "kappa" kappa;
  check "p_idle" p_idle;
  check "p_io" p_io;
  { kappa; p_idle; p_io }

let of_processor ?p_io (p : Platforms.Processor.t) =
  let p_io = Option.value p_io ~default:(Platforms.Processor.default_p_io p) in
  make ~kappa:p.kappa ~p_idle:p.p_idle ~p_io

let of_config (c : Platforms.Config.t) =
  of_processor ~p_io:c.p_io c.processor

let cpu t sigma = t.kappa *. sigma *. sigma *. sigma
let compute_total t sigma = t.p_idle +. cpu t sigma
let io_total t = t.p_idle +. t.p_io
let with_p_idle t p_idle = make ~kappa:t.kappa ~p_idle ~p_io:t.p_io
let with_p_io t p_io = make ~kappa:t.kappa ~p_idle:t.p_idle ~p_io

let add_text b t =
  Buffer.add_string b "{P(s)=";
  Report.Decimal.add_general b 6 t.kappa;
  Buffer.add_string b " s^3 + ";
  Report.Decimal.add_general b 6 t.p_idle;
  Buffer.add_string b " mW; Pio=";
  Report.Decimal.add_general b 4 t.p_io;
  Buffer.add_string b " mW}"

let pp ppf t =
  let b = Buffer.create 64 in
  add_text b t;
  Format.pp_print_string ppf (Buffer.contents b)
