type request =
  | Optimize of {
      config : Platforms.Config.t;
      rho : float;
      single_speed : bool;
    }
  | Frontier of { config : Platforms.Config.t }
  | Evaluate of {
      config : Platforms.Config.t;
      w : float;
      sigma1 : float;
      sigma2 : float;
      replicas : int;
    }
  | Health
  | Stats

exception Bad of string

let parse json =
  let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  let params route =
    match Json.member "params" json with
    | None -> Json.Obj []
    | Some (Json.Obj _ as o) -> o
    | Some _ -> fail "%s: \"params\" must be an object" route
  in
  let config route p =
    match Json.member "config" p with
    | None -> Option.get (Platforms.Config.find "hera/xscale")
    | Some j -> (
        match Json.to_string_opt j with
        | None -> fail "%s: \"config\" must be a string" route
        | Some name -> (
            match Platforms.Config.find name with
            | Some c -> c
            | None ->
                fail
                  "%s: unknown configuration %S (expected \
                   platform/processor, e.g. hera/xscale)"
                  route name))
  in
  let positive_number route key default p =
    match Json.member key p with
    | None -> (
        match default with
        | Some v -> v
        | None -> fail "%s: missing required parameter %S" route key)
    | Some j -> (
        match Json.to_float_opt j with
        | Some v when Float.is_finite v && v > 0. -> v
        | Some _ | None ->
            fail "%s: %S must be a positive number" route key)
  in
  let bool_param route key default p =
    match Json.member key p with
    | None -> default
    | Some j -> (
        match Json.to_bool_opt j with
        | Some b -> b
        | None -> fail "%s: %S must be a boolean" route key)
  in
  let int_param route key default p =
    match Json.member key p with
    | None -> default
    | Some j -> (
        match Json.to_int_opt j with
        | Some v when v >= 0 -> v
        | Some _ | None ->
            fail "%s: %S must be a non-negative integer" route key)
  in
  match
    match Json.member "route" json with
    | None -> fail "request must be an object with a \"route\" member"
    | Some j -> (
        match Json.to_string_opt j with
        | None -> fail "\"route\" must be a string"
        | Some route -> (
            match route with
            | "optimize" ->
                let p = params route in
                Optimize
                  {
                    config = config route p;
                    rho = positive_number route "rho" (Some 3.) p;
                    single_speed = bool_param route "single_speed" false p;
                  }
            | "frontier" ->
                let p = params route in
                Frontier { config = config route p }
            | "evaluate" ->
                let p = params route in
                Evaluate
                  {
                    config = config route p;
                    w = positive_number route "w" None p;
                    sigma1 = positive_number route "s1" None p;
                    sigma2 = positive_number route "s2" None p;
                    replicas = int_param route "replicas" 0 p;
                  }
            | "health" -> Health
            | "stats" -> Stats
            | other -> fail "unknown route %S" other))
  with
  | request -> Ok request
  | exception Bad reason -> Error reason

let route = function
  | Optimize _ -> "optimize"
  | Frontier _ -> "frontier"
  | Evaluate _ -> "evaluate"
  | Health -> "health"
  | Stats -> "stats"

(* [key] then [v] as ["%.17g"] prints it: [Report.Decimal] makes the
   same [caml_format_float] call as [Printf], without its format
   interpreter. *)
let add_float b key v =
  Buffer.add_string b key;
  Report.Decimal.add_general b 17 v

let canonical = function
  | Optimize { config; rho; single_speed } ->
      let b = Buffer.create 80 in
      Buffer.add_string b "optimize config=";
      Buffer.add_string b (Platforms.Config.name config);
      add_float b " rho=" rho;
      Buffer.add_string b
        (if single_speed then " mode=single-speed" else " mode=two-speeds");
      Buffer.contents b
  | Frontier { config } -> "frontier config=" ^ Platforms.Config.name config
  | Evaluate { config; w; sigma1; sigma2; replicas } ->
      let b = Buffer.create 128 in
      Buffer.add_string b "evaluate config=";
      Buffer.add_string b (Platforms.Config.name config);
      add_float b " w=" w;
      add_float b " s1=" sigma1;
      add_float b " s2=" sigma2;
      Buffer.add_string b " replicas=";
      Buffer.add_string b (Int.to_string replicas);
      Buffer.contents b
  | Health -> "health"
  | Stats -> "stats"

let fingerprint request = Resilience.Checksum.hex_of_string (canonical request)

let cacheable = function
  | Optimize _ | Frontier _ | Evaluate _ -> true
  | Health | Stats -> false

let error_response ?(extra = []) ~id ~code message =
  Json.Obj
    [
      ("id", id);
      ("status", Json.String "error");
      ( "error",
        Json.Obj
          ((("code", Json.String code) :: extra)
          @ [ ("message", Json.String message) ]) );
    ]

let too_large ~max_bytes =
  error_response ~id:Json.Null ~code:"too-large"
    (Printf.sprintf "request exceeds %d bytes" max_bytes)

let read line =
  match Json.decode line with
  | Error e ->
      Error
        (error_response ~id:Json.Null ~code:"parse"
           ~extra:[ ("position", Json.Int e.position) ]
           e.message)
  | Ok json -> (
      let id = Option.value (Json.member "id" json) ~default:Json.Null in
      match parse json with
      | Ok request -> Ok (id, request)
      | Error reason -> Error (error_response ~id ~code:"bad-request" reason))
