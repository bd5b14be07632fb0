(* Shared helpers and QCheck generators for the test suite. *)

let checkf ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let check_close ?(rtol = 1e-9) msg expected actual =
  if not (Numerics.Float_utils.approx_equal ~rtol expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g (rtol %g)" msg expected
      actual rtol

let check_raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

let hera_xscale () =
  Core.Env.of_config (Option.get (Platforms.Config.find "hera/xscale"))

let atlas_crusoe () =
  Core.Env.of_config (Option.get (Platforms.Config.find "atlas/crusoe"))

(* Generators spanning the realistic model ranges: rates around the
   paper's 1e-6..1e-3, times up to thousands of seconds, normalized
   speeds. *)

let gen_lambda = QCheck.Gen.(map (fun e -> 10. ** e) (float_range (-7.) (-3.)))
let gen_time = QCheck.Gen.float_range 1. 3000.
let gen_verify = QCheck.Gen.float_range 0. 300.
let gen_speed = QCheck.Gen.float_range 0.1 1.0
let gen_w = QCheck.Gen.float_range 50. 50_000.

let gen_params =
  QCheck.Gen.(
    map
      (fun (lambda, c, r, v) -> Core.Params.make ~lambda ~c ~r ~v ())
      (quad gen_lambda gen_time gen_time gen_verify))

let gen_power =
  QCheck.Gen.(
    map
      (fun (kappa, p_idle, p_io) -> Core.Power.make ~kappa ~p_idle ~p_io)
      (triple (float_range 100. 6000.) (float_range 0. 300.)
         (float_range 0. 600.)))

let arb_params = QCheck.make ~print:(Format.asprintf "%a" Core.Params.pp) gen_params
let arb_power = QCheck.make ~print:(Format.asprintf "%a" Core.Power.pp) gen_power

let arb_pattern =
  QCheck.make
    ~print:(fun (w, s1, s2) -> Printf.sprintf "w=%g s1=%g s2=%g" w s1 s2)
    QCheck.Gen.(triple gen_w gen_speed gen_speed)

let arb_params_pattern =
  QCheck.make
    ~print:(fun (p, (w, s1, s2)) ->
      Format.asprintf "%a w=%g s1=%g s2=%g" Core.Params.pp p w s1 s2)
    QCheck.Gen.(pair gen_params (triple gen_w gen_speed gen_speed))

let arb_full =
  QCheck.make
    ~print:(fun (p, pw, (w, s1, s2)) ->
      Format.asprintf "%a %a w=%g s1=%g s2=%g" Core.Params.pp p Core.Power.pp
        pw w s1 s2)
    QCheck.Gen.(
      triple gen_params gen_power (triple gen_w gen_speed gen_speed))

let gen_mixed =
  QCheck.Gen.(
    map
      (fun ((c, r, v), (lambda, fraction)) ->
        Core.Mixed.make ~c ~r ~v
          ~lambda_f:(fraction *. lambda)
          ~lambda_s:((1. -. fraction) *. lambda)
          ())
      (pair (triple gen_time gen_time gen_verify)
         (pair gen_lambda (float_range 0.05 0.95))))

let arb_mixed_pattern =
  QCheck.make
    ~print:(fun ((m : Core.Mixed.t), (w, s1, s2)) ->
      Printf.sprintf "c=%g r=%g v=%g lf=%g ls=%g w=%g s1=%g s2=%g" m.c m.r m.v
        m.lambda_f m.lambda_s w s1 s2)
    QCheck.Gen.(pair gen_mixed (triple gen_w gen_speed gen_speed))

(* Deterministic qcheck registration: property tests always run with
   the same PRNG state, so the suite cannot flake across runs. *)
let qcheck test =
  (* rexspeed-lint: allow RX001 fixed seed is what makes qcheck deterministic *)
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5EED |]) test

(* Words [f ()] allocates on the minor heap of the calling domain. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Bit-for-bit float equality: unlike [=], it tells 0. from -0. and
   matches a nan with the same nan. *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_solution (a : Core.Optimum.solution) (b : Core.Optimum.solution) =
  same_bits a.sigma1 b.sigma1
  && same_bits a.sigma2 b.sigma2
  && same_bits a.w_opt b.w_opt
  && same_bits a.w_energy b.w_energy
  && same_bits a.window.w_min b.window.w_min
  && same_bits a.window.w_max b.window.w_max
  && same_bits a.energy_overhead b.energy_overhead
  && same_bits a.time_overhead b.time_overhead
  && Bool.equal a.bound_active b.bound_active
