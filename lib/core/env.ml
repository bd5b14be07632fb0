type t = { params : Params.t; power : Power.t; speeds : float array }

let make ~params ~power ~speeds =
  let rec strictly_increasing = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
  in
  if speeds = [] then invalid_arg "Env.make: empty speed set";
  if List.exists (fun s -> not (Float.is_finite s) || s <= 0.) speeds then
    invalid_arg "Env.make: speeds must be positive finite floats";
  if not (strictly_increasing speeds) then
    invalid_arg "Env.make: speeds must be strictly increasing";
  { params; power; speeds = Array.of_list speeds }

let of_config_file (file : Platforms.Config_file.t) =
  let min_speed = List.fold_left Float.min infinity file.speeds in
  let p_io =
    match file.p_io with
    | Some p -> p
    | None -> file.kappa *. min_speed *. min_speed *. min_speed
  in
  make
    ~params:(Params.make ~lambda:file.lambda ~c:file.c ?r:file.r ~v:file.v ())
    ~power:(Power.make ~kappa:file.kappa ~p_idle:file.p_idle ~p_io)
    ~speeds:file.speeds

let of_config (config : Platforms.Config.t) =
  make
    ~params:(Params.of_platform ~r:config.r config.platform)
    ~power:(Power.of_config config)
    ~speeds:config.processor.Platforms.Processor.speeds

let speed_pairs t =
  let speeds = Array.to_list t.speeds in
  List.concat_map (fun s1 -> List.map (fun s2 -> (s1, s2)) speeds) speeds

let with_params t params = { t with params }
let with_power t power = { t with power }
let with_lambda t lambda = { t with params = Params.with_lambda t.params lambda }
let with_c t c = { t with params = Params.with_c t.params c }
let with_v t v = { t with params = Params.with_v t.params v }

let with_p_idle t p_idle =
  { t with power = Power.with_p_idle t.power p_idle }

let with_p_io t p_io = { t with power = Power.with_p_io t.power p_io }

let add_text b t =
  Buffer.add_string b "params: ";
  Params.add_text b t.params;
  Buffer.add_string b "\npower: ";
  Power.add_text b t.power;
  Buffer.add_string b "\nspeeds: ";
  Array.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ", ";
      Report.Decimal.add_general b 6 s)
    t.speeds

(* The same lines in a vertical box, so they keep the indentation of
   the column the box opens at. *)
let pp ppf t =
  let b = Buffer.create 256 in
  add_text b t;
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list Format.pp_print_string)
    (String.split_on_char '\n' (Buffer.contents b))
