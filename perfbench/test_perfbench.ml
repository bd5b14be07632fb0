(* The benchmark's own test: its oracle must count an altered response
   and an altered estimate as failures, its inputs must be pure
   functions of the seed, and a result missing a named metric, or
   carrying one that is not finite, must be refused. *)

open Perfbench

let ctx () =
  {
    Ctx.workload = "test";
    seed = 1;
    seconds = 1.;
    traced = false;
    exe = "";
    dir = "";
    spans = Spans.create ();
    attempted = 0;
    failed = 0;
    notes = [];
  }

(* A response line as the daemon renders one, built here from the
   in-process renderer so the test does not depend on a server. *)
let response ~id ~cached request_line =
  match Oracle.expected_output request_line with
  | None -> Alcotest.fail "generator produced an invalid request"
  | Some (fingerprint, rendering) ->
      Server.Json.(
        encode
          (Obj
             [
               ("id", Int id);
               ("status", String "ok");
               ("route", String "optimize");
               ("fingerprint", String fingerprint);
               ("cached", Bool cached);
               ("exit", Int 0);
               ("output", String rendering.output);
             ]))

(* Flip one byte of the rendered output, leaving the JSON valid. *)
let alter line =
  let at = String.length line - 10 in
  String.mapi (fun i c -> if i = at then if c = '0' then '1' else '0' else c) line

let hot = Gen.hot ~seed:7 ~round:64
let request k = Gen.hot_line hot ~id:k k

let test_good_response () =
  let line = response ~id:3 ~cached:true (request 3) in
  Alcotest.(check bool) "cheap check" true (Oracle.cheap_ok ~id:3 ~cached:true line);
  Alcotest.(check (result unit string))
    "full check" (Ok ())
    (Oracle.full_check ~cached:true ~request_line:(request 3) line);
  let again = response ~id:41 ~cached:true (request 3) in
  Alcotest.(check bool) "same bytes under another id" true (Oracle.same_modulo_id line again)

let test_altered_response () =
  let ctx = ctx () in
  let line = response ~id:5 ~cached:true (request 5) in
  let bad = alter line in
  (* On the clock: a later response of a key is compared with the
     key's first one. *)
  ignore (Ctx.check ctx (Oracle.same_modulo_id line bad) ~what:"altered response" : bool);
  (* Off the clock: the first response is compared with the renderer. *)
  (match Oracle.full_check ~cached:true ~request_line:(request 5) bad with
  | Ok () -> ()
  | Error e -> Ctx.fail_counted ctx 1 ~what:e);
  Alcotest.(check int) "both checks count a failure" 2 ctx.failed;
  Alcotest.(check bool) "wrong cached flag" false (Oracle.cheap_ok ~id:5 ~cached:false line);
  Alcotest.(check bool) "wrong id" false (Oracle.cheap_ok ~id:6 ~cached:true line)

let test_altered_estimate () =
  let model = Core.Mixed.make ~c:300. ~r:300. ~v:15.4 ~lambda_f:0. ~lambda_s:1.69e-4 () in
  let power = Core.Power.make ~kappa:1550. ~p_idle:60. ~p_io:5.2 in
  let estimate () =
    Sim.Montecarlo.pattern_estimate ~pool:Parallel.Pool.sequential ~replicas:64 ~seed:3 ~model ~power
      ~w:2764. ~sigma1:0.4 ~sigma2:0.4 ()
  in
  let reference = estimate () in
  let altered = { reference with re_executions_mean = Float.succ reference.re_executions_mean } in
  let ctx = ctx () in
  List.iter
    (fun e -> ignore (Ctx.check ctx (Oracle.identical reference e) ~what:"estimate" : bool))
    [ estimate (); altered ];
  Alcotest.(check int) "one altered estimate" 1 ctx.failed

let test_named_metrics () =
  let expected = Outcome.per_layer in
  let complete = List.map (fun n -> (n, 1.)) expected in
  Alcotest.(check (list string)) "complete" [] (Outcome.missing_or_nonfinite ~expected complete);
  let broken =
    List.filter_map
      (fun (n, v) ->
        if n = "json.decode_us" then None
        else if n = "lru.find_us" then Some (n, nan)
        else Some (n, v))
      complete
  in
  Alcotest.(check (list string))
    "missing and NaN" [ "json.decode_us"; "lru.find_us" ]
    (Outcome.missing_or_nonfinite ~expected broken)

let test_seeded_inputs () =
  let lines seed = Array.mapi (fun i k -> Gen.hot_line (Gen.hot ~seed ~round:500) ~id:i k) (Gen.hot ~seed ~round:500).sequence in
  Alcotest.(check bool) "same seed, same requests" true (lines 9 = lines 9);
  Alcotest.(check bool) "other seed, other requests" false (lines 9 = lines 10);
  let c = Gen.cold ~seed:4 in
  let queries = Gen.cold_lines c 20_000 |> Array.map (fun l -> String.sub l (String.index l 'p') (String.length l - String.index l 'p')) in
  let distinct = Hashtbl.create 20_000 in
  Array.iter (fun q -> Hashtbl.replace distinct q ()) queries;
  Alcotest.(check int) "cold queries never repeat" 20_000 (Hashtbl.length distinct);
  Array.iter
    (fun l -> if Oracle.parse l = None then Alcotest.failf "invalid request %s" l)
    (Array.sub (Gen.cold_lines c 100) 0 100)

(* Rates are taken at the slow tenth of the rounds and times at the
   slow tenth too, and scaling to the reference CPU multiplies rates by
   the slowdown and divides times by it. *)
let test_slow_tenth_and_scaling () =
  let rounds = List.init 11 (fun i -> float_of_int (10 + i)) in
  Alcotest.(check (float 1e-9)) "rate nine rounds in ten reach" 11. (Stats.slow_rate rounds);
  Alcotest.(check (float 1e-9)) "time nine rounds in ten stay under" 19. (Stats.slow_time rounds);
  let measured = [ ("ops_per_s", 100.); ("lat_p50_ms", 4.); ("setup_s", 2.); ("peak_rss_mb", 9.) ] in
  Alcotest.(check (list (pair string (float 1e-9))))
    "a CPU twice as slow as the reference"
    [ ("ops_per_s", 200.); ("lat_p50_ms", 2.); ("setup_s", 1.); ("peak_rss_mb", 9.) ]
    (Calib.scale ~slowdown:2. measured)

(* BENCHMARK.json declares exactly the metrics every workload reports,
   in the same order and with the units they report them in. *)
let test_declared_metrics () =
  let json =
    match Server.Json.decode (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
    | Ok json -> json
    | Error e -> Alcotest.fail (Server.Json.error_to_string e)
  in
  let entries key =
    match Server.Json.member key json with
    | Some (Server.Json.List l) ->
        List.map
          (fun m ->
            let field k = Option.value ~default:"" (Option.bind (Server.Json.member k m) Server.Json.to_string_opt) in
            (field "name", field "unit"))
          l
    | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key
  in
  List.iter
    (fun (key, reported) ->
      let declared = entries key in
      Alcotest.(check (list string)) key reported (List.map fst declared);
      List.iter (fun (name, u) -> Alcotest.(check string) name (Outcome.unit_of name) u) declared)
    [ ("end_to_end", Outcome.end_to_end); ("per_layer", Outcome.per_layer) ];
  Alcotest.(check (list string))
    "workloads" Outcome.workloads
    (List.map fst (entries "workloads"))

let () =
  Alcotest.run "perfbench"
    [
      ( "oracle",
        [
          Alcotest.test_case "good response" `Quick test_good_response;
          Alcotest.test_case "altered response" `Quick test_altered_response;
          Alcotest.test_case "altered estimate" `Quick test_altered_estimate;
        ] );
      ( "result",
        [
          Alcotest.test_case "named metrics" `Quick test_named_metrics;
          Alcotest.test_case "seeded inputs" `Quick test_seeded_inputs;
          Alcotest.test_case "declared metrics" `Quick test_declared_metrics;
          Alcotest.test_case "slow tenth and scaling" `Quick test_slow_tenth_and_scaling;
        ] );
    ]
