(* The output oracle behind [failed].

   Serving: every response's status, id and cached flag are checked on
   the clock with byte searches that cost a few microseconds; every
   response of a hot key must equal, apart from its id, the first
   response of that key; and off the clock the first response of every
   hot key, and a seeded sample of cold responses, are decoded and
   their [output] compared with in-process [Server.Render].

   Offline: plain, journaled and resumed estimates of one seed must be
   bit-identical, and so must grids computed at 1 and 2 domains. *)

(* Offset of the first occurrence of [pattern] in [line], or -1. *)
let find line pattern =
  let n = String.length line and m = String.length pattern in
  let rec matches i j =
    j >= m || (String.unsafe_get line (i + j) = String.unsafe_get pattern j && matches i (j + 1))
  in
  let rec go i = if i + m > n then -1 else if matches i 0 then i else go (i + 1) in
  go 0

let contains line pattern = find line pattern >= 0

(* The digits of the response's ["id":N] member, as (start, stop). Only
   member keys carry unescaped quotes: the [output] string cannot
   contain the pattern. *)
let id_digits line =
  match find line {|"id":|} with
  | -1 -> None
  | at ->
      let start = at + 5 in
      let stop = ref start in
      while
        !stop < String.length line
        && match line.[!stop] with '0' .. '9' -> true | _ -> false
      do
        incr stop
      done;
      if !stop = start then None else Some (start, !stop)

let response_id line =
  Option.bind (id_digits line) (fun (start, stop) ->
      int_of_string_opt (String.sub line start (stop - start)))

(* [a] and [b] are byte-identical once their id digits are cut out. *)
let same_modulo_id a b =
  match (id_digits a, id_digits b) with
  | Some (a0, a1), Some (b0, b1) ->
      let la = String.length a and lb = String.length b in
      la - (a1 - a0) = lb - (b1 - b0)
      && a0 = b0
      && String.sub a 0 a0 = String.sub b 0 b0
      &&
      let rec tail i = i >= la - a1 || (a.[a1 + i] = b.[b1 + i] && tail (i + 1)) in
      tail 0
  | _ -> false

(* The on-the-clock check every response gets. *)
let cheap_ok ~id ~cached line =
  response_id line = Some id
  && contains line {|"status":"ok"|}
  && contains line (if cached then {|"cached":true|} else {|"cached":false|})
  && contains line {|"exit":0|}

let parse request_line =
  match Result.map Server.Protocol.parse (Server.Json.decode request_line) with
  | Ok (Ok request) -> Some request
  | Ok (Error _) | Error _ -> None

let mode single_speed =
  if single_speed then Core.Bicrit.Single_speed else Core.Bicrit.Two_speeds

(* The [Render] call the daemon's compute step makes for a query. *)
let render = function
  | Server.Protocol.Optimize { config; rho; single_speed } ->
      Some
        (Server.Render.optimize ~mode:(mode single_speed)
           ~env:(Core.Env.of_config config)
           ~name:(Platforms.Config.name config)
           ~rho ())
  | _ -> None

(* What the daemon must have answered for [request_line]. *)
let expected_output request_line =
  Option.bind (parse request_line) (fun request ->
      Option.map (fun r -> (Server.Protocol.fingerprint request, r)) (render request))

(* The off-the-clock check: decode the response and compare every field
   the client relies on, the output bytes included. *)
let full_check ~cached ~request_line line =
  let open Server.Json in
  match (decode line, expected_output request_line) with
  | Error e, _ -> Error ("undecodable response: " ^ error_to_string e)
  | _, None -> Error ("benchmark sent an invalid request: " ^ request_line)
  | Ok json, Some (fingerprint, rendering) ->
      let str key = Option.bind (member key json) to_string_opt in
      let problems =
        List.filter_map
          (fun (ok, what) -> if ok then None else Some what)
          [
            (str "status" = Some "ok", "status");
            (str "route" = Some "optimize", "route");
            (str "fingerprint" = Some fingerprint, "fingerprint");
            (Option.bind (member "cached" json) to_bool_opt = Some cached, "cached");
            (Option.bind (member "exit" json) to_int_opt = Some 0 && rendering.ok, "exit");
            (str "output" = Some rendering.output, "output bytes");
          ]
      in
      if problems = [] then Ok () else Error ("wrong " ^ String.concat ", " problems)

(* ---- offline --------------------------------------------------------- *)

(* [compare] rather than [=] so that a NaN field still equals itself. *)
let identical a b = compare a b = 0
