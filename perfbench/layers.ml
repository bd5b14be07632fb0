(* Layer costs, measured by replaying a workload's own inputs through
   each layer's public function in this process. *)

let passes = 5

(* Median over [passes] timed passes of the mean cost of [f] per input,
   in microseconds, after one warm-up pass; [prepare] runs untimed
   before every pass. One more pass records a span per call. *)
let per_call ?(prepare = ignore) spans ~name inputs f =
  let n = float_of_int (Array.length inputs) in
  let pass () =
    prepare ();
    let t0 = Stats.now () in
    Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) inputs;
    (Stats.now () -. t0) *. 1e6 /. n
  in
  ignore (pass ());
  let us = Stats.median (Array.init passes (fun _ -> pass ())) in
  prepare ();
  Array.iteri
    (fun i x -> Spans.time spans ~name ~id:i (fun () -> ignore (Sys.opaque_identity (f x))))
    inputs;
  us

let decode line =
  match Server.Json.decode line with
  | Ok json -> json
  | Error e -> failwith ("replay: " ^ Server.Json.error_to_string e)

let parse json =
  match Server.Protocol.parse json with Ok r -> r | Error e -> failwith ("replay: " ^ e)

(* Fingerprint-shaped keys that no request produces: what a full cache
   holds when the workload's keys are not in it. *)
let fillers = Array.init 256 (fun i -> Printf.sprintf "%016x" (i * 2654435761))

(* The serving layers a request crosses inside the daemon: decode,
   parse, fingerprint, cache, encode. [requests] are request lines as
   sent; [responses] response lines to re-encode; on [hot] workloads
   every lookup hits, otherwise it misses a full cache. Cache inserts
   always go into a full cache, so each one evicts. *)
let serve spans ~hot ~requests ~responses ~distinct =
  let decoded = Array.map decode requests in
  let parsed = Array.map parse decoded in
  let fingerprints = Array.map Server.Protocol.fingerprint parsed in
  let distinct_fps =
    Array.map (fun l -> Server.Protocol.fingerprint (parse (decode l))) distinct
  in
  let encoded = Array.map decode responses in
  let cache = ref (Server.Lru.create ~capacity:256) in
  let fill keys () =
    cache := Server.Lru.create ~capacity:256;
    Array.iter (fun k -> Server.Lru.add !cache k ()) keys
  in
  [
    ("json.decode_us", per_call spans ~name:"json.decode" requests Server.Json.decode);
    ("protocol.parse_us", per_call spans ~name:"protocol.parse" decoded Server.Protocol.parse);
    ( "protocol.fingerprint_us",
      per_call spans ~name:"protocol.fingerprint" parsed Server.Protocol.fingerprint );
    ( "lru.find_us",
      per_call spans ~name:"lru.find"
        ~prepare:(fill (if hot then distinct_fps else fillers))
        fingerprints
        (fun k -> Server.Lru.find !cache k) );
    ( "lru.add_us",
      per_call spans ~name:"lru.add" ~prepare:(fill fillers)
        (if hot then distinct_fps else fingerprints)
        (fun k -> Server.Lru.add !cache k ()) );
    ("json.encode_us", per_call spans ~name:"json.encode" encoded Server.Json.encode);
  ]

(* Solver work of a cache miss: the whole rendering, and the BiCrit
   solve inside it. *)
let compute spans ~distinct =
  let parsed = Array.map (fun l -> parse (decode l)) distinct in
  let solves =
    Array.map
      (function
        | Server.Protocol.Optimize { config; rho; single_speed } ->
            (Core.Env.of_config config, rho, Oracle.mode single_speed)
        | _ -> failwith "replay: not an optimize query")
      parsed
  in
  [
    ("render.optimize_us", per_call spans ~name:"render.optimize" parsed Oracle.render);
    ( "core.solve_us",
      per_call spans ~name:"core.solve" solves (fun (env, rho, mode) ->
          Core.Bicrit.solve ~mode env ~rho) );
  ]

(* A region's fixed cost, from two-task regions, and the marginal cost
   of each further task, from 1026-task regions; tasks do no work. The
   pool has one domain, as everywhere in the benchmark. *)
let pool spans =
  let p = Parallel.Pool.sequential in
  let calls = Array.make 100 () in
  let region = per_call spans ~name:"pool.region" calls (fun () -> Parallel.Pool.init_array p 2 Fun.id) in
  let wide = per_call spans ~name:"pool.region1026" calls (fun () -> Parallel.Pool.init_array p 1026 Fun.id) in
  [ ("pool.region_us", region); ("pool.task_us", (wide -. region) /. 1024.) ]

let shard_map spans fingerprints =
  let map = Server.Shard_map.create ~shards:2 in
  per_call spans ~name:"shard_map.lookup" fingerprints (Server.Shard_map.lookup map)
