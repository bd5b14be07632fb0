type options = {
  port : int option;
  socket_path : string option;
  cache_entries : int;
  max_request_bytes : int;
  max_inflight : int;
  log_every : int;
  handle_signals : bool;
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
    handle_signals = true;
    deadline_ms = 0;
    io_timeout_ms = 30_000;
    max_queue = 0;
    verify_sample = 0;
  }

let stop_requested = Atomic.make false
let stop () = Atomic.set stop_requested true

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

let float_or_null v = if Float.is_finite v then Json.Float v else Json.Null

let result_response ~id ~route ~fingerprint ~cached ~(rendering : Render.rendering) =
  Json.Obj
    [
      ("id", id);
      ("status", Json.String "ok");
      ("route", Json.String route);
      ("fingerprint", Json.String fingerprint);
      ("cached", Json.Bool cached);
      ("exit", Json.Int (if rendering.ok then 0 else 1));
      ("output", Json.String rendering.output);
    ]

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

(* One parsed-and-classified request line. *)
type job =
  | Immediate of { route : string; ok : bool; response : Json.t }
  | Solve of {
      id : Json.t;
      request : Protocol.request;
      fingerprint : string;
      cached : Render.rendering option;
    }

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
  listeners : Conn.listener list;
  cache : Render.rendering Lru.t;
  metrics : Metrics.t;
  counters : Tracing.Counters.t;
  domains : int;
  give_up_s : float;  (* --io-timeout-ms; [infinity] when 0 *)
  deadline_s : float;
  mutable conns : Conn.t list;
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
  match Json.decode line with
  | Error e ->
      Immediate
        {
          route = "invalid";
          ok = false;
          response =
            Protocol.error_response ~id:Json.Null ~code:"parse"
              ~extra:[ ("position", Json.Int e.position) ]
              e.message;
        }
  | Ok json -> (
      let id = Option.value (Json.member "id" json) ~default:Json.Null in
      match Protocol.parse json with
      | Error reason ->
          Immediate
            {
              route = "invalid";
              ok = false;
              response = Protocol.error_response ~id ~code:"bad-request" reason;
            }
      | Ok Protocol.Health ->
          Immediate
            {
              route = "health";
              ok = true;
              response =
                health_response ~id ~metrics:st.metrics ~counters:st.counters
                  ~queue_depth ~max_queue:st.options.max_queue
                  ~domains:st.domains;
            }
      | Ok Protocol.Stats ->
          Immediate
            {
              route = "stats";
              ok = true;
              response =
                stats_response ~id ~metrics:st.metrics ~cache:st.cache
                  ~counters:st.counters ~queue_depth ~domains:st.domains;
            }
      | Ok request ->
          let fingerprint = Protocol.fingerprint request in
          let cached =
            if Protocol.cacheable request then begin
              let hit =
                Tracing.Tracer.with_span ~id:ordinal
                  Tracing.Span.Cache_lookup (fun () ->
                    Lru.find st.cache fingerprint)
              in
              Tracing.Counters.bump st.counters
                (match hit with Some _ -> Cache_hits | None -> Cache_misses);
              hit
            end
            else None
          in
          Solve { id; request; fingerprint; cached })

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
let respond st a job =
  let route, ok, response =
    match job with
    | Immediate { route; ok; response } -> (route, ok, response)
    | Solve { id; request; fingerprint; cached = Some rendering } ->
        ( Protocol.route request,
          true,
          result_response ~id ~route:(Protocol.route request) ~fingerprint
            ~cached:true ~rendering )
    | Solve { cached = None; _ } -> invalid_arg "Daemon.respond: unsolved job"
  in
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
  let bytes = Json.encode_line response in
  if io_fires Resilience.Chaos.Torn ~ordinal then begin
    (* Chaos: serve the bytes one write at a time, exercising every
       partial-write path without changing what the peer reads. *)
    let last = String.length bytes - 1 in
    String.iteri
      (fun i c ->
        Conn.send
          ?on_done:(if i = last then Some record else None)
          conn (String.make 1 c))
      bytes
  end
  else Conn.send ~on_done:record conn bytes;
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
      respond st a (Immediate { route = "shed"; ok = false; response })
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
  let response, ok =
    match outcome with
    | Ok rendering ->
        if Protocol.cacheable request then
          Lru.add st.cache fingerprint rendering;
        let age = Metrics.now_s () -. a.admitted_at in
        if past_deadline st age then
          (deadline_error st ~id ~age "computing", false)
        else
          ( result_response ~id ~route ~fingerprint ~cached:false ~rendering,
            true )
    | Error message ->
        (Protocol.error_response ~id ~code:"internal" message, false)
  in
  Immediate { route; ok; response }

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
              {
                route = "deadline";
                ok = false;
                response =
                  deadline_error st ~id:(request_id a.line) ~age "queued";
              } )
        else (a, classify st ~ordinal:a.ordinal a.line))
      (take st.options.max_inflight [])
  in
  let misses =
    List.filter_map
      (function
        | _, Solve { request; cached = None; _ } -> Some request
        | _, (Immediate _ | Solve _) -> None)
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
      let job =
        match job with
        | Immediate _ | Solve { cached = Some _; _ } -> job
        | Solve { id; request; fingerprint; cached = None } ->
            let x =
              match !solved with
              | x :: rest ->
                  solved := rest;
                  x
              | [] -> Error "dispatch underflow"
            in
            commit st a ~id ~request ~fingerprint x
      in
      if not (Conn.dead a.conn) then respond st a job)
    classified

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)

(* Frame what every live connection has sent: admit complete lines,
   answer overlong ones at once. *)
let enqueue_ready st ~shedding =
  List.iter
    (fun conn ->
      if not (Conn.dead conn) then
        List.iter
          (function
            | Conn.Line line -> admit st ~shedding conn line
            | Conn.Too_large ->
                let max_bytes = st.options.max_request_bytes in
                Conn.send conn
                  (Json.encode_line (Protocol.too_large ~max_bytes));
                Metrics.record st.metrics ~route:"invalid" ~ok:false
                  ~latency_s:0.)
          (Conn.lines ~max_bytes:st.options.max_request_bytes conn))
    st.conns

(* One [Conn.poll]: a connection dropped for its give-up time is an I/O
   timeout. *)
let poll st ?listeners ~timeout () =
  let events =
    Conn.poll ?listeners st.conns ~give_up_s:st.give_up_s ~timeout
  in
  List.iter
    (fun _ -> Tracing.Counters.bump st.counters Io_timeouts)
    events.timed_out;
  st.conns <- st.conns @ events.accepted

let sweep st =
  (* A backlog means there is work regardless of the sockets: poll
     instead of sleeping. *)
  poll st ~listeners:st.listeners
    ~timeout:(if Queue.is_empty st.queue then 0.2 else 0.)
    ();
  enqueue_ready st ~shedding:true;
  (* One dispatch batch per sweep: the queue persists across sweeps,
     which is what makes [max_queue] a real bound and keeps accepts
     responsive under a backlog. *)
  process st;
  (* Close a connection at EOF only once its answers are out: the queue
     may still hold admitted requests from a peer that half-closed. *)
  let owed conn =
    Seq.exists (fun a -> a.conn == conn) (Queue.to_seq st.queue)
  in
  let gone, live =
    List.partition
      (fun c -> Conn.dead c || (Conn.drained c && not (owed c)))
      st.conns
  in
  List.iter Conn.close gone;
  st.conns <- live

(* Drain: stop accepting, then answer everything already admitted —
   queued-but-unstarted requests included — plus any fully-received
   request still in a socket buffer, and write it all out. Shedding is
   off: a request the client already sent gets an answer, not a retry
   hint. A client is read again only once its answers are out, so the
   drain ends after a round that began with nothing to write and
   admitted nothing. *)
let drain st =
  List.iter Conn.close_listener st.listeners;
  let rec loop () =
    let writing = List.exists Conn.unwritten st.conns in
    let before = st.admitted in
    poll st ~timeout:(if writing then 0.2 else 0.) ();
    enqueue_ready st ~shedding:false;
    while not (Queue.is_empty st.queue) do
      process st
    done;
    if writing || st.admitted > before || List.exists Conn.unwritten st.conns
    then loop ()
  in
  if not (List.is_empty st.conns && Queue.is_empty st.queue) then
    Tracing.Tracer.with_span ~id:0 ~label:"daemon.drain"
      Tracing.Span.Daemon_request loop;
  List.iter Conn.close st.conns;
  st.conns <- []

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

let serve ?pool ?on_ready options listeners =
  Atomic.set stop_requested false;
  let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
  let previous_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  if options.handle_signals then begin
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop ()));
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop ()))
  end;
  let st =
    {
      options;
      pool;
      listeners;
      cache = Lru.create ~capacity:options.cache_entries;
      metrics = Metrics.create ();
      counters = Tracing.Counters.create ();
      domains = Parallel.Pool.domains pool;
      give_up_s =
        (if options.io_timeout_ms = 0 then infinity
         else float_of_int options.io_timeout_ms /. 1000.);
      deadline_s = float_of_int options.deadline_ms /. 1000.;
      conns = [];
      queue = Queue.create ();
      admitted = 0;
      served = 0;
      misses = 0;
    }
  in
  List.iter
    (fun l ->
      Printf.eprintf "rexspeed serve: listening on %s\n%!" (Conn.endpoint l))
    listeners;
  Option.iter (fun f -> f ()) on_ready;
  while not (Atomic.get stop_requested) do
    sweep st
  done;
  drain st;
  Printf.eprintf "rexspeed serve: drained, %d request(s) served\n%!" st.served;
  ignore (Sys.signal Sys.sigpipe previous_sigpipe)

let run ?pool ?on_ready options =
  match validate options with
  | Error _ as e -> e
  | Ok () -> (
      match Conn.listen ~port:options.port ~socket_path:options.socket_path with
      | Error _ as e -> e
      | Ok listeners ->
          (* From here on the daemon owns the socket path: unlink it on
             every exit, normal drain or escaping exception, so a crash
             never leaves a stale file that blocks the next start. *)
          Fun.protect
            ~finally:(fun () ->
              Option.iter
                (fun path -> try Unix.unlink path with Unix.Unix_error _ -> ())
                options.socket_path)
            (fun () -> serve ?pool ?on_ready options listeners);
          Ok ())
