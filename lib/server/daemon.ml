type options = {
  port : int option;
  socket_path : string option;
  cache_entries : int;
  max_request_bytes : int;
  max_inflight : int;
  log_every : int;
  deadline_ms : int;
  io_timeout_ms : int;
  max_queue : int;
  verify_sample : int;
}

let default_options =
  {
    port = None;
    socket_path = None;
    cache_entries = 256;
    max_request_bytes = 1024 * 1024;
    max_inflight = 64;
    log_every = 0;
    deadline_ms = 0;
    io_timeout_ms = 30_000;
    max_queue = 0;
    verify_sample = 0;
  }

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

let float_or_null v = if Float.is_finite v then Json.Float v else Json.Null

(* An answer ready to write: its route and outcome, for the metrics,
   and the line itself. *)
type answer = { route : string; ok : bool; bytes : string }

let answer_of ~route ~ok response =
  { route; ok; bytes = Json.encode_line response }

let id_prefix = "{\"id\":"

(* A committed result as the bytes of two answers: the miss's line
   ("cached":false) and what the cache keeps, the bytes of a hit's
   answer ("cached":true) that follow its id. The members before and
   after "cached" are encoded once, escaping [output] above all, and
   both strings are blitted from them. *)
let result_bytes ~id ~route ~fingerprint (rendering : Render.rendering) =
  let head =
    Json.encode_members
      [
        ("status", Json.String "ok");
        ("route", Json.String route);
        ("fingerprint", Json.String fingerprint);
      ]
  in
  let tail =
    Json.encode_members
      [
        ("exit", Json.Int (if rendering.ok then 0 else 1));
        ("output", Json.String rendering.output);
      ]
  in
  ( String.concat ""
      [ id_prefix; Json.encode id; head; {|,"cached":false|}; tail; "}\n" ],
    String.concat "" [ head; {|,"cached":true|}; tail; "}\n" ] )

(* A hit's line: its own id, then the cached bytes. Those were built
   without an id, never cut out of an encoded line, so whatever the id
   holds (commas, a "cached" member of its own) cannot shift them. *)
let hit_line ~id after_id =
  String.concat "" [ id_prefix; Json.encode id; after_id ]

let hardening_json ~counters ~queue_depth ~domains =
  let count c = Json.Int (Tracing.Counters.get counters c) in
  [
    ("queue_depth", Json.Int queue_depth);
    ("shed", count Sheds);
    ("deadline_exceeded", count Deadline_timeouts);
    ("io_timeouts", count Io_timeouts);
    ( "verify",
      Json.Obj
        [
          ("checks", count Verify_checks);
          ("divergences", count Verify_divergences);
        ] );
    ( "workers",
      Json.Obj
        [
          ("domains", Json.Int domains);
          ("restarts", Json.Int (Parallel.Pool.worker_restarts ()));
        ] );
  ]

let health_response ~id ~metrics ~counters ~queue_depth ~max_queue ~domains =
  Json.Obj
    [
      ("id", id);
      ("status", Json.String "ok");
      ("route", Json.String "health");
      ( "result",
        Json.Obj
          ([
             ("status", Json.String "serving");
             ("version", Json.String Version.current);
             ("uptime_s", float_or_null (Metrics.uptime_s metrics));
             ("ready", Json.Bool (max_queue = 0 || queue_depth < max_queue));
           ]
          @ hardening_json ~counters ~queue_depth ~domains) );
    ]

let latency_json (s : Metrics.route_stats) =
  let ms v = float_or_null (1000. *. v) in
  Json.Obj
    [
      ("min", ms s.latency_min_s);
      ("mean", ms s.latency_mean_s);
      ("max", ms s.latency_max_s);
      ("p99", ms s.latency_p99_s);
    ]

(* Cache hits over lookups; [0.] before the first lookup. *)
let hit_rate counters =
  let hits = Tracing.Counters.get counters Cache_hits in
  let total = hits + Tracing.Counters.get counters Cache_misses in
  if total = 0 then 0. else float_of_int hits /. float_of_int total

let stats_response ~id ~metrics ~cache ~counters ~queue_depth ~domains =
  let route_json (s : Metrics.route_stats) =
    Json.Obj
      [
        ("route", Json.String s.route);
        ("requests", Json.Int s.requests);
        ("errors", Json.Int s.errors);
        ("latency_ms", latency_json s);
      ]
  in
  let totals = Metrics.totals metrics in
  Json.Obj
    [
      ("id", id);
      ("status", Json.String "ok");
      ("route", Json.String "stats");
      ( "result",
        Json.Obj
          [
            ("version", Json.String Version.current);
            ("uptime_s", float_or_null (Metrics.uptime_s metrics));
            ("requests", Json.Int totals.requests);
            ("errors", Json.Int totals.errors);
            ("latency_ms", latency_json totals);
            ("routes", Json.List (List.map route_json (Metrics.routes metrics)));
            ( "cache",
              Json.Obj
                [
                  ("capacity", Json.Int (Lru.capacity cache));
                  ("entries", Json.Int (Lru.length cache));
                  ("hits", Json.Int (Tracing.Counters.get counters Cache_hits));
                  ( "misses",
                    Json.Int (Tracing.Counters.get counters Cache_misses) );
                  ("hit_rate", Json.Float (hit_rate counters));
                ] );
            ( "hardening",
              Json.Obj (hardening_json ~counters ~queue_depth ~domains) );
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)

(* Solver work, executed on a pool worker (or inline for a singleton
   batch). Never raises: a handler exception becomes an [internal]
   error response, not a dead daemon. *)
let compute request =
  match
    match request with
    | Protocol.Optimize { config; rho; single_speed } ->
        let mode =
          if single_speed then Core.Bicrit.Single_speed
          else Core.Bicrit.Two_speeds
        in
        Render.optimize ~mode
          ~env:(Core.Env.of_config config)
          ~name:(Platforms.Config.name config)
          ~rho ()
    | Protocol.Frontier { config } ->
        Render.frontier
          ~env:(Core.Env.of_config config)
          ~name:(Platforms.Config.name config)
          ()
    | Protocol.Evaluate { config; w; sigma1; sigma2; replicas } ->
        Render.evaluate
          ~env:(Core.Env.of_config config)
          ~w ~sigma1 ~sigma2 ~replicas ()
    | Protocol.Health | Protocol.Stats ->
        invalid_arg "Daemon.compute: live route"
  with
  | rendering -> Ok rendering
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception e -> Error (Printexc.to_string e)

(* The response fingerprint compared by verified re-execution: the
   rendered bytes plus the ok bit, hashed with the same checksum the
   run journal uses. *)
let response_fingerprint (rendering : Render.rendering) =
  Resilience.Checksum.hex_of_string
    ((if rendering.ok then "+" else "-") ^ rendering.output)

(* Best-effort request id for responses emitted before (or instead of)
   classification — shed and expired requests. *)
let request_id line =
  match Json.decode line with
  | Ok json -> Option.value (Json.member "id" json) ~default:Json.Null
  | Error _ -> Json.Null

(* One parsed-and-classified request line: answered at once (errors,
   live routes and cache hits), or a miss to solve. *)
type job =
  | Immediate of answer
  | Solve of { id : Json.t; request : Protocol.request; fingerprint : string }

(* ------------------------------------------------------------------ *)
(* Dispatcher state                                                    *)

(* One admitted request line. The ordinal is assigned at admission by
   the single dispatcher, so it doubles as the trace span id; a
   request's latency runs from [admitted_at] to its last byte written. *)
type admission = {
  conn : Conn.t;
  line : string;
  admitted_at : float;
  ordinal : int;
}

type state = {
  options : options;
  pool : Parallel.Pool.t;
  front : Conn.front;
  cache : string Lru.t;  (* a committed answer's bytes after its id *)
  metrics : Metrics.t;
  counters : Tracing.Counters.t;
  domains : int;
  deadline_s : float;
  (* Complete request lines accepted but not yet dispatched. Bounded
     by [max_queue]; persists across sweeps, so the drain must empty
     it too. *)
  queue : admission Queue.t;
  mutable admitted : int;
  mutable served : int;
  mutable misses : int;  (* computed misses, for verify sampling *)
}

let classify st ~ordinal line =
  let queue_depth = Queue.length st.queue in
  match Protocol.read line with
  | Error response -> Immediate (answer_of ~route:"invalid" ~ok:false response)
  | Ok (id, Protocol.Health) ->
      Immediate
        (answer_of ~route:"health" ~ok:true
           (health_response ~id ~metrics:st.metrics ~counters:st.counters
              ~queue_depth ~max_queue:st.options.max_queue ~domains:st.domains))
  | Ok (id, Protocol.Stats) ->
      Immediate
        (answer_of ~route:"stats" ~ok:true
           (stats_response ~id ~metrics:st.metrics ~cache:st.cache
              ~counters:st.counters ~queue_depth ~domains:st.domains))
  | Ok (id, request) -> (
      let fingerprint = Protocol.fingerprint request in
      let cached =
        if Protocol.cacheable request then begin
          let hit =
            Tracing.Tracer.with_span ~id:ordinal Tracing.Span.Cache_lookup
              (fun () -> Lru.find st.cache fingerprint)
          in
          Tracing.Counters.bump st.counters
            (match hit with Some _ -> Cache_hits | None -> Cache_misses);
          hit
        end
        else None
      in
      match cached with
      | Some after_id ->
          Immediate
            {
              route = Protocol.route request;
              ok = true;
              bytes = hit_line ~id after_id;
            }
      | None -> Solve { id; request; fingerprint })

let io_fires kind ~ordinal =
  match Resilience.Chaos.io_active () with
  | None -> false
  | Some io ->
      let fire = Resilience.Chaos.io_fires io kind ~index:ordinal ~attempt:0 in
      if fire then Tracing.Tracer.count Tracing.Span.Chaos_io_injections;
      fire

let log_line st =
  let totals = Metrics.totals st.metrics in
  let uptime = Metrics.uptime_s st.metrics in
  Printf.eprintf
    "rexspeed serve: %d request(s), %.1f req/s, cache hit rate %.1f%%, p99 \
     %.1f ms\n\
     %!"
    totals.requests
    (float_of_int totals.requests /. Float.max uptime 1e-9)
    (100. *. hit_rate st.counters)
    (1000. *. totals.latency_p99_s)

(* ------------------------------------------------------------------ *)
(* Answering                                                           *)

(* Send one answer. It is measured once, when its last byte is written
   or its connection dies: the latency from admission, for the metrics
   and the request span alike. A response that never reached its
   client is a failed request, whatever the solver said. *)
let respond st a { route; ok; bytes } =
  let { conn; ordinal; admitted_at; line = _ } = a in
  (* Chaos: a deterministically chosen response is never written — the
     connection drops instead, as if the network gave out. *)
  if io_fires Resilience.Chaos.Drop ~ordinal then Conn.close conn;
  let record wrote =
    Metrics.record st.metrics ~route ~ok:(ok && wrote)
      ~latency_s:(Metrics.now_s () -. admitted_at);
    Tracing.Tracer.complete ~id:ordinal ~label:route
      Tracing.Span.Daemon_request ~since:admitted_at
  in
  if io_fires Resilience.Chaos.Torn ~ordinal then begin
    (* Chaos: serve the bytes one write at a time, exercising every
       partial-write path without changing what the peer reads. *)
    let last = String.length bytes - 1 in
    String.iteri
      (fun i c ->
        if i = last then Conn.answer ~on_done:record conn (String.make 1 c)
        else Conn.send conn (String.make 1 c))
      bytes
  end
  else Conn.answer ~on_done:record conn bytes;
  st.served <- st.served + 1;
  if st.options.log_every > 0 && st.served mod st.options.log_every = 0 then
    log_line st

(* Admission: assign the ordinal, stamp the arrival time, and either
   enqueue or — when the bounded queue is full — shed with a structured
   error carrying a retry hint. A shed request is admitted and answered
   at once, out of request order; the id lets pipelined clients
   correlate. *)
let admit st ~shedding conn line =
  let a =
    { conn; line; admitted_at = Metrics.now_s (); ordinal = st.admitted }
  in
  st.admitted <- st.admitted + 1;
  let depth = Queue.length st.queue in
  if shedding && st.options.max_queue > 0 && depth >= st.options.max_queue
  then begin
    Tracing.Counters.bump st.counters Sheds;
    let retry_after_ms =
      50 * (1 + (depth / Int.max 1 st.options.max_inflight))
    in
    let response =
      Protocol.error_response ~id:(request_id line) ~code:"shed"
        ~extra:[ ("retry_after_ms", Json.Int retry_after_ms) ]
        (Printf.sprintf "admission queue full (%d queued)" depth)
    in
    if not (Conn.dead conn) then
      respond st a (answer_of ~route:"shed" ~ok:false response)
  end
  else Queue.push a st.queue

(* Sampled dual execution: every [verify_sample]-th computed miss is
   re-executed and its response fingerprint compared before the
   response is committed. A mismatch is a detected silent error: count
   it, trace it, and let one authoritative re-execution decide. *)
let verified st ~ordinal ~request outcome =
  match outcome with
  | Error _ -> outcome
  | Ok rendering ->
      let sampled =
        st.options.verify_sample > 0
        && st.misses mod st.options.verify_sample = 0
      in
      st.misses <- st.misses + 1;
      if not sampled then outcome
      else begin
        Tracing.Counters.bump st.counters Verify_checks;
        Tracing.Tracer.with_span ~id:ordinal ~label:"verify"
          Tracing.Span.Daemon_verify
        @@ fun () ->
        let confirmed =
          match compute request with
          | Ok second ->
              String.equal
                (response_fingerprint rendering)
                (response_fingerprint second)
          | Error _ -> false
        in
        if confirmed then outcome
        else begin
          Tracing.Counters.bump st.counters Verify_divergences;
          Tracing.Tracer.with_span ~id:ordinal ~label:"reexec"
            Tracing.Span.Daemon_verify (fun () -> compute request)
        end
      end

(* Chaos: corrupt a computed response before verification, so the soak
   can prove divergences are caught, never shipped. *)
let maybe_corrupt ~ordinal outcome =
  match outcome with
  | Error _ -> outcome
  | Ok (rendering : Render.rendering) -> (
      match Resilience.Chaos.io_active () with
      | Some io
        when io.corrupt_p > 0. && io_fires Resilience.Chaos.Corrupt ~ordinal
        ->
          Ok
            {
              rendering with
              Render.output =
                Resilience.Chaos.corrupt_string io ~index:ordinal
                  rendering.Render.output;
            }
      | Some _ | None -> outcome)

let past_deadline st age = st.options.deadline_ms > 0 && age > st.deadline_s

let deadline_error st ~id ~age phase =
  Tracing.Counters.bump st.counters Deadline_timeouts;
  Protocol.error_response ~id ~code:"deadline_exceeded"
    ~extra:
      [
        ("elapsed_ms", Json.Int (int_of_float (1000. *. age)));
        ("deadline_ms", Json.Int st.options.deadline_ms);
      ]
    ("request exceeded its deadline while " ^ phase)

(* Verify, cache and package one computed miss. Committed results only:
   a divergent primary never reaches the cache or the wire. *)
let commit st a ~id ~request ~fingerprint outcome =
  let outcome =
    verified st ~ordinal:a.ordinal ~request
      (maybe_corrupt ~ordinal:a.ordinal outcome)
  in
  let route = Protocol.route request in
  match outcome with
  | Ok rendering ->
      let line, after_id = result_bytes ~id ~route ~fingerprint rendering in
      if Protocol.cacheable request then Lru.add st.cache fingerprint after_id;
      let age = Metrics.now_s () -. a.admitted_at in
      if past_deadline st age then
        answer_of ~route ~ok:false (deadline_error st ~id ~age "computing")
      else { route; ok = true; bytes = line }
  | Error message ->
      answer_of ~route ~ok:false
        (Protocol.error_response ~id ~code:"internal" message)

(* Resolve up to [max_inflight] queued requests: expire the ones already
   past their deadline, classify the rest on the dispatcher (cache
   lookups included), fan the misses out over the pool, answer in
   order. *)
let process st =
  let rec take n acc =
    if n = 0 || Queue.is_empty st.queue then List.rev acc
    else take (n - 1) (Queue.pop st.queue :: acc)
  in
  let classified =
    List.map
      (fun a ->
        let age = Metrics.now_s () -. a.admitted_at in
        if past_deadline st age then
          ( a,
            Immediate
              (answer_of ~route:"deadline" ~ok:false
                 (deadline_error st ~id:(request_id a.line) ~age "queued")) )
        else (a, classify st ~ordinal:a.ordinal a.line))
      (take st.options.max_inflight [])
  in
  let misses =
    List.filter_map
      (function
        | _, Solve { request; _ } -> Some request
        | _, Immediate _ -> None)
      classified
  in
  (* A singleton miss keeps the dispatcher as the caller so the
     solver's own pool region still parallelizes; real batches trade
     that for inter-request parallelism. *)
  let solved =
    ref
      (match misses with
      | [] -> []
      | [ request ] -> [ compute request ]
      | _ -> Parallel.Pool.map_list st.pool compute misses)
  in
  List.iter
    (fun (a, job) ->
      let answer =
        match job with
        | Immediate answer -> answer
        | Solve { id; request; fingerprint } ->
            let x =
              match !solved with
              | x :: rest ->
                  solved := rest;
                  x
              | [] -> Error "dispatch underflow"
            in
            commit st a ~id ~request ~fingerprint x
      in
      if not (Conn.dead a.conn) then respond st a answer)
    classified

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)

(* One sweep: poll, admit every complete line (answer overlong ones at
   once), then dispatch one batch. The queue persists across sweeps,
   which is what makes [max_queue] a real bound and keeps accepts
   responsive under a backlog. A drain's sweep sheds nothing and
   empties the queue: a request the client already sent gets an
   answer, not a retry hint. A connection dropped for its give-up time
   is an I/O timeout. *)
let sweep st ~draining ~timeout =
  List.iter
    (fun _ -> Tracing.Counters.bump st.counters Io_timeouts)
    (Conn.poll st.front ~timeout ());
  let max_bytes = st.options.max_request_bytes in
  Conn.each_line st.front ~max_bytes (fun conn -> function
    | Conn.Line line -> admit st ~shedding:(not draining) conn line
    | Conn.Too_large ->
        Conn.answer conn (Json.encode_line (Protocol.too_large ~max_bytes));
        Metrics.record st.metrics ~route:"invalid" ~ok:false ~latency_s:0.);
  if draining then
    while not (Queue.is_empty st.queue) do
      process st
    done
  else process st

let drain st =
  let drain () =
    Conn.drain st.front ~round:(fun ~timeout ->
        sweep st ~draining:true ~timeout)
  in
  if Conn.idle st.front && Queue.is_empty st.queue then drain ()
  else
    Tracing.Tracer.with_span ~id:0 ~label:"daemon.drain"
      Tracing.Span.Daemon_request drain

let validate options =
  Result.bind
    (Conn.check_endpoints ~port:options.port ~socket_path:options.socket_path)
  @@ fun () ->
  if options.cache_entries < 0 then Error "--cache-entries must be >= 0"
  else if options.max_request_bytes < 2 then
    Error "--max-request-bytes must be at least 2"
  else if options.max_inflight < 1 then Error "--max-inflight must be >= 1"
  else if options.log_every < 0 then Error "--log-every must be >= 0"
  else if options.deadline_ms < 0 then Error "--deadline-ms must be >= 0"
  else if options.io_timeout_ms < 0 then Error "--io-timeout-ms must be >= 0"
  else if options.max_queue < 0 then Error "--max-queue must be >= 0"
  else if options.verify_sample < 0 then Error "--verify-sample must be >= 0"
  else Ok ()

let serve ?pool ?on_ready ~stop options front =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
  let st =
    {
      options;
      pool;
      front;
      cache = Lru.create ~capacity:options.cache_entries;
      metrics = Metrics.create ();
      counters = Tracing.Counters.create ();
      domains = Parallel.Pool.domains pool;
      deadline_s = float_of_int options.deadline_ms /. 1000.;
      queue = Queue.create ();
      admitted = 0;
      served = 0;
      misses = 0;
    }
  in
  List.iter
    (Printf.eprintf "rexspeed serve: listening on %s\n%!")
    (Conn.endpoints front);
  Option.iter (fun f -> f ()) on_ready;
  (* A backlog means there is work regardless of the sockets: poll
     instead of sleeping. *)
  while not (Atomic.get stop) do
    sweep st ~draining:false
      ~timeout:(if Queue.is_empty st.queue then 0.2 else 0.)
  done;
  drain st;
  Printf.eprintf "rexspeed serve: drained, %d request(s) served\n%!" st.served

let run ?pool ?on_ready ~stop options =
  Result.bind (validate options) @@ fun () ->
  Conn.serve ~port:options.port ~socket_path:options.socket_path
    ~give_up_s:
      (if options.io_timeout_ms = 0 then infinity
       else float_of_int options.io_timeout_ms /. 1000.)
  @@ fun front ->
  serve ?pool ?on_ready ~stop options front;
  Ok ()
