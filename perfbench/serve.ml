(* The three serving workloads: serve-hot, serve-cold and fleet-hot.

   One client process with one thread drives at most two connections,
   with one request outstanding on each: [serve]'s callers wait for
   every reply, so the load is a closed loop of two clients. The client
   and every server share one CPU (see run.py), and every server runs
   one domain: a second domain on that CPU would make each pool region
   wait for a time slice. *)

open Outcome

let hot_round = 4000  (* requests per timed round *)
let cold_round = 400
let cold_warmup = 512  (* unmeasured misses: fills the 256-entry cache, then evicts *)
let setups = 15  (* set-ups per untraced run, spread over it; see [Stats.setup_time] *)
let min_rounds = 3
let probe_rounds = 4  (* rounds per server when another workload probes the hot layers *)

type spec = { label : string; args : string list; env : string list; socket : string; fleet : bool }

let base_env (ctx : Ctx.t) =
  [
    "PATH=" ^ Option.value (Sys.getenv_opt "PATH") ~default:"/usr/bin:/bin";
    (* The router makes its workers' socket directory under TMPDIR. *)
    "TMPDIR=" ^ Filename.concat ctx.dir "tmp";
  ]

let spec ctx ~label ?(fleet = false) ~args ~env () =
  let socket = Filename.concat ctx.Ctx.dir (label ^ ".sock") in
  { label; socket; fleet; args = "serve" :: "--socket" :: socket :: args; env = base_env ctx @ env }

let daemon ctx ~label ?trace () =
  let trace = match trace with Some p -> [ "--trace"; p ] | None -> [] in
  spec ctx ~label ~args:([ "--domains"; "1" ] @ trace) ~env:[] ()

(* [serve --shards N] hands its workers [--domains] from
   [Parallel.Pool.default_domain_count], which ignores the router's own
   [--domains]; REXSPEED_DOMAINS=1 pins every worker to one domain. *)
let fleet ctx ~label ?trace () =
  let trace = match trace with Some p -> [ "REXSPEED_TRACE=" ^ p ] | None -> [] in
  spec ctx ~label ~fleet:true ~args:[ "--shards"; "2" ] ~env:("REXSPEED_DOMAINS=1" :: trace) ()

(* A single daemon exactly like one fleet worker: the other side of the
   paired router-hop measurement. *)
let bare ctx ~label = spec ctx ~label ~args:[] ~env:[ "REXSPEED_DOMAINS=1" ] ()

type target = {
  spec : spec;
  server : Client.server;
  health : Client.conn;
  conns : Client.conn array;
  traced : bool;  (** client spans are recorded on this target's rounds *)
  mutable rates : float list;  (** ok responses per second, per round *)
  mutable round_p50 : float list;
  mutable slowdowns : float list;  (** [Calib.bracket]'s slowdown around each round and set-up *)
  lat : Stats.samples;  (** every request's latency, seconds *)
}

let start ctx ?(traced = false) spec =
  let server =
    Client.spawn ~label:spec.label ~exe:ctx.Ctx.exe ~args:spec.args ~env:spec.env
      ~socket:spec.socket
      ~log:(Filename.concat ctx.dir (spec.label ^ ".log"))
  in
  let health = Client.connect server in
  let deadline = Stats.now () +. 20. in
  let rec ready () =
    let json = Client.health health in
    if Client.serving json then json
    else if Stats.now () > deadline then failwith (spec.label ^ " never reported serving")
    else begin
      Unix.sleepf 0.002;
      ready ()
    end
  in
  let json = ready () in
  if spec.fleet then
    server.workers <-
      (match Client.json_path json [ "result"; "shard" ] with
      | Some (Server.Json.List shards) ->
          List.filter_map
            (fun s -> Option.bind (Server.Json.member "pid" s) Server.Json.to_int_opt)
            shards
      | _ -> failwith (spec.label ^ ": health lists no shard pids"));
  let conns = [| Client.connect server; Client.connect server |] in
  { spec; server; health; conns; traced; rates = []; round_p50 = []; slowdowns = []; lat = Stats.samples () }

let close t =
  Client.close t.health;
  Array.iter Client.close t.conns;
  Client.stop t.server

(* Start-up plus warm-up: from spawning the server to its first ok
   health response, then the warm-up traffic. *)
let set_up ctx spec ~warm =
  let t0 = Stats.now () in
  let t = start ctx spec in
  warm t;
  (t, Stats.now () -. t0)

let peak_rss_mb t =
  List.fold_left (fun acc pid -> acc +. Client.vm_hwm_mb pid) 0. (t.server.pid :: t.server.workers)

(* Rounds over [targets] in turn until [seconds] (by default the run's)
   have passed, every target has run [min_rounds] and all have run
   equally often. [between] runs off the clock after each round. *)
let timed ?(between = ignore) ?seconds ?(min_rounds = min_rounds) ctx targets ~lines_for
    ~on_response =
  let n = Array.length targets in
  let t_end = Stats.now () +. Option.value seconds ~default:ctx.Ctx.seconds in
  let r = ref 0 in
  while Stats.now () < t_end || !r mod n <> 0 || !r < min_rounds * n do
    let t = targets.(!r mod n) in
    let lines, base = lines_for !r in
    let ok = ref 0 in
    let round, slowdown =
      Calib.bracket (fun () ->
          Client.round
            ?spans:(if t.traced then Some ctx.spans else None)
            t.conns lines
            ~on_response:(fun i line -> if on_response ~base i line then incr ok))
    in
    t.slowdowns <- slowdown :: t.slowdowns;
    t.rates <- (float_of_int !ok /. round.elapsed) :: t.rates;
    t.round_p50 <- Stats.median round.latency :: t.round_p50;
    Array.iter (Stats.push t.lat) round.latency;
    incr r;
    between ()
  done

(* The untraced run: one server serves the timed rounds, while further
   set-ups of the same command, each stopped again at once, run between
   rounds. *)
let untraced ctx make ~warm ~lines_for ~on_response =
  let samples = ref [] and slowdowns = ref [] in
  let sample () =
    let (extra, s), slowdown = Calib.bracket (fun () -> set_up ctx (make "setup") ~warm) in
    close extra;
    samples := s :: !samples;
    slowdowns := slowdown :: !slowdowns
  in
  let between = Stats.spread ~times:setups ~seconds:ctx.Ctx.seconds sample in
  between ();
  let t, _ = set_up ctx (make "main") ~warm in
  timed ~between ctx [| t |] ~lines_for ~on_response;
  t.slowdowns <- t.slowdowns @ !slowdowns;
  (t, Stats.setup_time !samples)

let p50_us t = 1e6 *. Stats.percentile (Stats.to_array t.lat) 0.5

(* The untraced figures, and the same at the reference CPU speed. *)
let end_to_end t ~setup_s =
  let measured =
    [
      ("ops_per_s", Stats.slow_rate t.rates);
      ("lat_p50_ms", 1e3 *. Stats.slow_time t.round_p50);
      ("setup_s", setup_s);
      ("peak_rss_mb", peak_rss_mb t);
    ]
  in
  (measured, Calib.scale ~slowdown:(Calib.run_slowdown t.slowdowns) measured)

let server_meta t =
  Obj
    [
      ("label", Str t.spec.label);
      ("argv", List (List.map (fun a -> Str a) t.server.argv));
      ("env", List (List.map (fun a -> Str a) t.server.env));
      ( "workers",
        List
          (List.map
             (fun pid -> List (List.map (fun a -> Str a) (Client.cmdline pid)))
             t.server.workers) );
      ("round_rates", List (List.rev_map (fun r -> Num r) t.rates));
      ("round_p50_us", List (List.rev_map (fun r -> Num (1e6 *. r)) t.round_p50));
      ("slowdowns", List (List.rev_map (fun r -> Num r) t.slowdowns));
      ( "pooled_us",
        let names = [ "p90"; "p95"; "p99"; "p999" ] in
        let values = Stats.quantiles (Stats.to_array t.lat) [ 0.9; 0.95; 0.99; 0.999 ] in
        Obj (List.map2 (fun k v -> (k, Num (1e6 *. v))) names values) );
      ("requests", Int t.lat.len);
    ]

let health_rtt_us t =
  let rtt =
    Array.init 300 (fun _ ->
        let t0 = Stats.now () in
        ignore (Client.call t.health {|{"route":"health","id":0}|});
        Stats.now () -. t0)
  in
  1e6 *. Stats.median rtt

let stats_int json path =
  Option.value ~default:0 (Option.bind (Client.json_path json ("result" :: path)) Server.Json.to_int_opt)

let hit_ratio json =
  let hits = stats_int json [ "cache"; "hits" ] and misses = stats_int json [ "cache"; "misses" ] in
  float_of_int hits /. float_of_int (Int.max 1 (hits + misses))

(* Largest share of requests any one shard served. *)
let max_share json =
  match Client.json_path json [ "result"; "shard" ] with
  | Some (Server.Json.List shards) ->
      let counts =
        List.map
          (fun s ->
            Option.value ~default:0
              (Option.bind (Client.json_path s [ "stats"; "requests" ]) Server.Json.to_int_opt))
          shards
      in
      float_of_int (List.fold_left Int.max 0 counts)
      /. float_of_int (Int.max 1 (List.fold_left ( + ) 0 counts))
  | _ -> nan

let sum names metrics = List.fold_left (fun acc n -> acc +. List.assoc n metrics) 0. names

(* Response lines checked in full once the clock has stopped. *)
type pending = { mutable checks : (string * string * bool) list; mutable count : int }

let full_checks ctx pending =
  List.iter
    (fun (request_line, line, cached) ->
      match Oracle.full_check ~cached ~request_line line with
      | Ok () -> ()
      | Error e -> Ctx.fail_counted ctx 1 ~what:e)
    pending.checks

(* ---- serve-hot and fleet-hot ----------------------------------------- *)

let hot ctx ~fleet:is_fleet ~probe =
  let is_fleet = is_fleet || probe in
  let hot = Gen.hot ~seed:ctx.Ctx.seed ~round:hot_round in
  let key_line k = Gen.hot_line hot ~id:k k in
  let fill_lines = Array.init Gen.hot_keys (fun k -> key_line k ^ "\n") in
  let seq_lines = Array.mapi (fun i k -> Gen.hot_line hot ~id:i k ^ "\n") hot.sequence in
  let pending = { checks = []; count = 0 } in
  (* Cache fill: every key once, so every response is a miss. *)
  let warm t =
    ignore
      (Client.round t.conns fill_lines ~on_response:(fun k line ->
           if Ctx.check ctx (Oracle.cheap_ok ~id:k ~cached:false line) ~what:"fill response"
           then pending.checks <- (key_line k, line, false) :: pending.checks)
        : Client.round)
  in
  (* Every timed response of a key must equal that key's first one,
     id aside; the first is checked in full after the clock stops. *)
  let first = Array.make Gen.hot_keys None and per_key = Array.make Gen.hot_keys 0 in
  let bytes = ref 0 in
  let on_response ~base:_ i line =
    let k = hot.sequence.(i) in
    per_key.(k) <- per_key.(k) + 1;
    bytes := !bytes + String.length line + 1;
    let good =
      match first.(k) with
      | Some f -> Oracle.response_id line = Some i && Oracle.same_modulo_id f line
      | None ->
          Oracle.cheap_ok ~id:i ~cached:true line
          && begin
               first.(k) <- Some line;
               true
             end
    in
    Ctx.check ctx good ~what:(Printf.sprintf "hot response %d" i)
  in
  let check_firsts () =
    Array.iteri
      (fun k f ->
        Option.iter
          (fun line ->
            match Oracle.full_check ~cached:true ~request_line:(key_line k) line with
            | Ok () -> ()
            | Error e -> Ctx.fail_counted ctx per_key.(k) ~what:e)
          f)
      first
  in
  let digest = Digest.to_hex (Digest.string (String.concat "" (Array.to_list fill_lines @ Array.to_list seq_lines))) in
  let lines_for _ = (seq_lines, 0) in
  if not ctx.traced then begin
    let make label = if is_fleet then fleet ctx ~label () else daemon ctx ~label () in
    let t, setup_s = untraced ctx make ~warm ~lines_for ~on_response in
    let measured, metrics = end_to_end t ~setup_s in
    let meta =
      [ ("servers", List [ server_meta t ]); ("request_digest", Str digest); ("measured", metrics_json measured) ]
    in
    close t;
    check_firsts ();
    full_checks ctx pending;
    { Outcome.metrics; meta }
  end
  else begin
    (* The server under test [a] takes turns with a fleet [fl] (itself,
       on fleet-hot) and a bare daemon [c] like one fleet worker, whose
       paired round medians give the router hop, and with a traced copy
       [b] of itself. A probe runs only the fleet and the bare daemon,
       for [probe_rounds] rounds each. *)
    let launch ?traced spec =
      let t = start ctx ?traced spec in
      warm t;
      t
    in
    let trace = Filename.concat ctx.dir "server-trace.json" in
    let a = launch (if is_fleet then fleet ctx ~label:"fleet" () else daemon ctx ~label:"daemon" ()) in
    let fl = if is_fleet then a else launch (fleet ctx ~label:"fleet" ()) in
    let c = launch (bare ctx ~label:"bare") in
    let b =
      if probe then None
      else
        Some
          (launch ~traced:true
             (if is_fleet then fleet ctx ~label:"fleet-traced" ~trace ()
              else daemon ctx ~label:"daemon-traced" ~trace ()))
    in
    let targets = Array.of_list (((a :: (if fl == a then [] else [ fl ])) @ [ c ]) @ Option.to_list b) in
    if probe then timed ctx targets ~seconds:0. ~min_rounds:probe_rounds ~lines_for ~on_response
    else timed ctx targets ~lines_for ~on_response;
    let stats = Client.stats a.health and fleet_stats = Client.stats fl.health in
    (* The daemon layer is measured on a daemon: in a fleet, health
       would also cross the router to every shard. *)
    let d = if is_fleet then c else a in
    let health_rtt = health_rtt_us d in
    let meta =
      [ ("servers", List (Array.to_list (Array.map server_meta targets))); ("request_digest", Str digest) ]
    in
    let hop = 1e6 *. Stats.median_list (List.map2 ( -. ) fl.round_p50 c.round_p50) in
    let p50_a = p50_us a and p50_d = p50_us d and p50_b = Option.map p50_us b in
    Array.iter close targets;
    check_firsts ();
    full_checks ctx pending;
    let responses = Array.map (fun k -> Option.value first.(k) ~default:"") hot.sequence in
    if Array.exists (( = ) "") responses then failwith "a key of the sequence never got a response";
    let requests = Array.map (fun l -> String.sub l 0 (String.length l - 1)) seq_lines in
    let distinct = Array.init Gen.hot_keys key_line in
    let layers =
      Layers.serve ctx.spans ~hot:true ~requests ~responses ~distinct @ Layers.compute ctx.spans ~distinct
    in
    let in_daemon = sum [ "json.decode_us"; "protocol.parse_us"; "protocol.fingerprint_us"; "lru.find_us"; "json.encode_us" ] layers in
    let lookup_us =
      Layers.shard_map ctx.spans
        (Array.map (fun l -> Server.Protocol.fingerprint (Layers.parse (Layers.decode l))) requests)
    in
    let accounted = in_daemon +. if is_fleet then hop +. lookup_us else 0. in
    let metrics =
      layers
      @ [
          ("json.response_bytes", float_of_int !bytes /. float_of_int (Array.fold_left ( + ) 0 per_key));
          ("lru.hit_ratio", hit_ratio stats);
          ("daemon.io_us", p50_d -. in_daemon);
          ("daemon.health_rtt_us", health_rtt);
          ("router.hop_us", hop);
          ("shard_map.lookup_us", lookup_us);
          ("shard.max_share", max_share fleet_stats);
        ]
      @
      match p50_b with
      | Some p50_b ->
          [ ("residual_frac", 1. -. (accounted /. p50_a)); ("trace.overhead_frac", (p50_b -. p50_a) /. p50_a) ]
      | None -> []
    in
    { Outcome.metrics; meta }
  end

(* The hot serving layers, router and daemon included, measured for a
   traced run of another workload on the hot inputs of its seed. *)
let hot_probe ctx =
  if not ctx.Ctx.traced then invalid_arg "Serve.hot_probe: not a traced run";
  hot ctx ~fleet:true ~probe:true

let hot ctx ~fleet = hot ctx ~fleet ~probe:false

(* ---- serve-cold ------------------------------------------------------ *)

let cold ctx =
  let seed = ctx.Ctx.seed in
  let stream = Gen.cold ~seed in
  let with_newline = Array.map (fun l -> l ^ "\n") in
  let warmup = with_newline (Gen.cold_lines stream cold_warmup) in
  let pending = { checks = []; count = 0 } in
  let sample ~id ~request line =
    if Gen.cold_sampled ~seed id && pending.count < 4000 then begin
      pending.checks <- (String.sub request 0 (String.length request - 1), line, false) :: pending.checks;
      pending.count <- pending.count + 1
    end
  in
  let warm t =
    ignore
      (Client.round t.conns warmup ~on_response:(fun i line ->
           if Ctx.check ctx (Oracle.cheap_ok ~id:i ~cached:false line) ~what:"warm-up response"
           then sample ~id:i ~request:warmup.(i) line)
        : Client.round)
  in
  (* The timed phase continues the stream: no query is ever repeated. *)
  let answered = ref 0 and current = ref [||] in
  let kept = ref [] and kept_count = ref 0 in
  let lines_for _ =
    let base = stream.produced in
    current := with_newline (Gen.cold_lines stream cold_round);
    (!current, base)
  in
  let bytes = ref 0 in
  let on_response ~base i line =
    let id = base + i in
    bytes := !bytes + String.length line + 1;
    incr answered;
    let good = Oracle.cheap_ok ~id ~cached:false line in
    if good then begin
      sample ~id ~request:!current.(i) line;
      if !kept_count < 2000 then begin
        kept := String.sub !current.(i) 0 (String.length !current.(i) - 1) :: !kept;
        incr kept_count
      end
    end;
    Ctx.check ctx good ~what:(Printf.sprintf "cold response %d" id)
  in
  if not ctx.traced then begin
    let t, setup_s =
      untraced ctx (fun label -> daemon ctx ~label ()) ~warm ~lines_for ~on_response
    in
    let measured, metrics = end_to_end t ~setup_s in
    let meta = [ ("servers", List [ server_meta t ]); ("measured", metrics_json measured) ] in
    close t;
    full_checks ctx pending;
    { Outcome.metrics; meta }
  end
  else begin
    let a = start ctx (daemon ctx ~label:"daemon" ()) in
    warm a;
    let trace = Filename.concat ctx.dir "server-trace.json" in
    let b = start ctx ~traced:true (daemon ctx ~label:"daemon-traced" ~trace ()) in
    warm b;
    let targets = [| a; b |] in
    timed ctx targets ~lines_for ~on_response;
    let stats = Client.stats a.health in
    let health_rtt = health_rtt_us a in
    let meta = [ ("servers", List (Array.to_list (Array.map server_meta targets))) ] in
    let p50_a = p50_us a and p50_b = p50_us b in
    Array.iter close targets;
    full_checks ctx pending;
    let requests = Array.of_list (List.rev !kept) in
    let responses = Array.of_list (List.map (fun (_, line, _) -> line) pending.checks) in
    let distinct = Array.sub requests 0 (Int.min 256 (Array.length requests)) in
    let layers =
      Layers.serve ctx.spans ~hot:false ~requests ~responses ~distinct @ Layers.compute ctx.spans ~distinct
    in
    let accounted =
      sum
        [
          "json.decode_us"; "protocol.parse_us"; "protocol.fingerprint_us"; "lru.find_us";
          "lru.add_us"; "render.optimize_us"; "json.encode_us";
        ]
        layers
    in
    let metrics =
      layers
      @ [
          ("json.response_bytes", float_of_int !bytes /. float_of_int !answered);
          ("lru.hit_ratio", hit_ratio stats);
          ("daemon.io_us", p50_a -. accounted);
          ("daemon.health_rtt_us", health_rtt);
          ("residual_frac", 1. -. (accounted /. p50_a));
          ("trace.overhead_frac", (p50_b -. p50_a) /. p50_a);
        ]
    in
    { Outcome.metrics; meta }
  end
