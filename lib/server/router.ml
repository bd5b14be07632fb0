(* The consistent-hash shard router: a request handler over [Conn],
   single-threaded like the daemon's dispatcher. One sweep's
   [Conn.poll] covers the public listeners, every client connection
   and one pipelined link per worker, and is the only place the router
   waits. Worker links are read on every sweep whatever the router
   still has queued for them, and an entry counts as sent once it is
   queued, so the router and a worker never deadlock writing to each
   other. *)

type options = {
  port : int option;
  socket_path : string option;
  shards : int;
  spawn_timeout_ms : int;
  max_request_bytes : int;
  worker_exe : string;
  worker_args : string list;
  handle_signals : bool;
}

let default_options =
  {
    port = None;
    socket_path = None;
    shards = 2;
    spawn_timeout_ms = 10_000;
    max_request_bytes = 1024 * 1024;
    worker_exe = "rexspeed";
    worker_args = [];
    handle_signals = true;
  }

let stop_requested = Atomic.make false
let stop () = Atomic.set stop_requested true

(* How long queued bytes may wait on a stuck peer before its connection
   is dropped, how often each worker is probed, and how long an
   unanswered probe may age before the worker is failed over. *)
let write_give_up_s = 30.
let probe_interval_s = 0.5
let revive_interval_s = 2.0
let max_respawn_attempts = 3

(* ------------------------------------------------------------------ *)
(* Clients                                                             *)

type client = {
  conn : Conn.t;
  mutable inflight : int;  (* requests awaiting a response *)
}

let respond_local client response =
  Conn.send client.conn (Json.encode_line response)

(* ------------------------------------------------------------------ *)
(* Pending entries                                                     *)

(* A fleet-wide fan-out ([health]/[stats]) in progress: one leg per
   live shard, composed into a single response when the last leg
   lands. Down shards contribute a [None] part immediately. *)
type agg = {
  agg_client : client;
  agg_id : Json.t;
  agg_route : string;
  mutable agg_waiting : int;
  mutable agg_parts : (int * Json.t option) list;
}

type entry_kind =
  | Relay of { client : client; id : Json.t; route : string }
  | Probe
  | Fanout of agg

(* One line owed to a worker. [sent] flips on write and back on
   failover replay; the association list per shard stays in ordinal
   order, so replay preserves the original send order (no Hashtbl, no
   iteration-order hazard). *)
type entry = {
  ordinal : int;
  line : string;  (* rewritten request line, no terminator *)
  kind : entry_kind;
  mutable sent : bool;
  mutable sent_at : float;
}

type shard = {
  worker : Supervisor.worker;
  mutable link : Conn.t option;
  mutable entries : entry list;  (* pending, oldest first *)
  mutable last_probe_at : float;
  mutable down : bool;
}

(* ------------------------------------------------------------------ *)
(* Id rewriting and response splicing                                  *)

(* Forwarded requests get the router ordinal spliced in as a duplicate
   first member: the daemon's decoder keeps duplicates and
   [Json.member] returns the first, so the worker echoes the ordinal
   while the client's own [id] member rides along untouched. Only
   lines that already parsed as valid requests reach this point, so
   the object is never empty (it has at least "route"). *)
let rewrite_request ~ordinal line =
  match String.index_opt line '{' with
  | Some i ->
      Printf.sprintf "{\"id\":%d,%s" ordinal
        (String.sub line (i + 1) (String.length line - i - 1))
  | None -> Printf.sprintf "{\"id\":%d}" ordinal (* unreachable *)

(* Every daemon response builder emits [id] as the first member, so a
   worker line starts with {"id":<ordinal>, — parse just that prefix
   and remember where the rest begins. Returns the ordinal and [Some
   offset] of the byte after the digits (the comma), or [None] offset
   when the fast path missed and the caller must fall back to a full
   decode. *)
let response_ordinal line =
  let prefix = "{\"id\":" in
  let plen = String.length prefix in
  let n = String.length line in
  let fast =
    if n > plen + 1 && String.equal (String.sub line 0 plen) prefix then begin
      let i = ref plen in
      while !i < n && line.[!i] >= '0' && line.[!i] <= '9' do
        incr i
      done;
      if !i > plen && !i < n && line.[!i] = ',' then
        Some (int_of_string (String.sub line plen (!i - plen)), Some !i)
      else None
    end
    else None
  in
  match fast with
  | Some _ as found -> found
  | None -> (
      match Json.decode line with
      | Error _ -> None
      | Ok json -> (
          match Json.member "id" json with
          | Some (Json.Int ordinal) -> Some (ordinal, None)
          | Some _ | None -> None))

(* Restore the client's id: splice bytes on the fast path (the relayed
   payload — [output] above all — stays exactly the worker's bytes),
   re-encode only when the prefix shape ever changes. *)
let restore_id ~id line rest_at =
  match rest_at with
  | Some i ->
      "{\"id\":" ^ Json.encode id ^ String.sub line i (String.length line - i)
  | None -> (
      match Json.decode line with
      | Ok (Json.Obj members) ->
          Json.encode
            (Json.Obj
               (("id", id)
               :: List.filter (fun (k, _) -> not (String.equal k "id")) members
               ))
      | Ok other -> Json.encode other
      | Error _ ->
          Json.encode
            (Protocol.error_response ~id ~code:"internal"
               "unparseable shard response"))

(* ------------------------------------------------------------------ *)
(* Fleet-wide aggregation                                              *)

let int_at path json =
  let rec walk json = function
    | [] -> Json.to_int_opt json
    | key :: rest -> (
        match Json.member key json with
        | Some child -> walk child rest
        | None -> None)
  in
  Option.value (walk json path) ~default:0

let sum_parts parts path =
  List.fold_left
    (fun acc (_, part) ->
      match part with Some json -> acc + int_at path json | None -> acc)
    0 parts

(* Client requests still owed an answer; probes do not count. *)
let in_flight shards =
  Array.fold_left
    (fun acc s ->
      acc
      + List.length
          (List.filter
             (fun e ->
               match e.kind with Relay _ | Fanout _ -> true | Probe -> false)
             s.entries))
    0 shards

let router_json ~counters ~shards =
  let count c = Json.Int (Tracing.Counters.get counters c) in
  Json.Obj
    [
      ("routed", count Router_routed);
      ("failovers", count Router_failovers);
      ("respawns", count Shard_respawns);
      ("replayed", count Router_replays);
      ("in_flight", Json.Int (in_flight shards));
    ]

let compose_health ~counters ~shards agg =
  let parts =
    List.sort (fun (a, _) (b, _) -> Int.compare a b) agg.agg_parts
  in
  let missing =
    List.exists (fun (_, part) -> Option.is_none part) parts
  in
  let any_down = Array.exists (fun s -> s.down) shards || missing in
  let shard_json (i, part) =
    let s = shards.(i) in
    Json.Obj
      [
        ("index", Json.Int i);
        ("pid", Json.Int s.worker.Supervisor.pid);
        ("respawns", Json.Int s.worker.Supervisor.respawns);
        ("status", Json.String (if s.down then "down" else "serving"));
        ( "health",
          match part with
          | Some json ->
              Option.value (Json.member "result" json) ~default:Json.Null
          | None -> Json.Null );
      ]
  in
  Json.Obj
    [
      ("id", agg.agg_id);
      ("status", Json.String "ok");
      ("route", Json.String "health");
      ( "result",
        Json.Obj
          [
            ("status", Json.String (if any_down then "degraded" else "serving"));
            ("version", Json.String Version.current);
            ("ready", Json.Bool (not any_down));
            ("shards", Json.Int (Array.length shards));
            ("router", router_json ~counters ~shards);
            ("shard", Json.List (List.map shard_json parts));
          ] );
    ]

let compose_stats ~counters ~shards agg =
  let parts =
    List.sort (fun (a, _) (b, _) -> Int.compare a b) agg.agg_parts
  in
  let sum path = Json.Int (sum_parts parts ("result" :: path)) in
  let shard_json (i, part) =
    Json.Obj
      [
        ("index", Json.Int i);
        ( "stats",
          match part with
          | Some json ->
              Option.value (Json.member "result" json) ~default:Json.Null
          | None -> Json.Null );
      ]
  in
  Json.Obj
    [
      ("id", agg.agg_id);
      ("status", Json.String "ok");
      ("route", Json.String "stats");
      ( "result",
        Json.Obj
          [
            ("version", Json.String Version.current);
            ("requests", sum [ "requests" ]);
            ("errors", sum [ "errors" ]);
            ( "cache",
              Json.Obj
                [
                  ("capacity", sum [ "cache"; "capacity" ]);
                  ("entries", sum [ "cache"; "entries" ]);
                  ("hits", sum [ "cache"; "hits" ]);
                  ("misses", sum [ "cache"; "misses" ]);
                ] );
            ( "hardening",
              Json.Obj
                [
                  ("shed", sum [ "hardening"; "shed" ]);
                  ("deadline_exceeded", sum [ "hardening"; "deadline_exceeded" ]);
                  ("io_timeouts", sum [ "hardening"; "io_timeouts" ]);
                  ( "verify",
                    Json.Obj
                      [
                        ("checks", sum [ "hardening"; "verify"; "checks" ]);
                        ( "divergences",
                          sum [ "hardening"; "verify"; "divergences" ] );
                      ] );
                  ( "workers",
                    Json.Obj
                      [
                        ( "restarts",
                          sum [ "hardening"; "workers"; "restarts" ] );
                      ] );
                ] );
            ("router", router_json ~counters ~shards);
            ("shard", Json.List (List.map shard_json parts));
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Runtime directory                                                   *)

let make_runtime_dir () =
  let path = Filename.temp_file "rexspeed-shard" "" in
  Unix.unlink path;
  Unix.mkdir path 0o700;
  path

(* ------------------------------------------------------------------ *)
(* Router state                                                        *)

type state = {
  options : options;
  listeners : Conn.listener list;
  runtime_dir : string;
  counters : Tracing.Counters.t;
  map : Shard_map.t;
  shards : shard array;
  probe_timeout_s : float;
  mutable clients : client list;
  mutable next_ordinal : int;
  mutable served : int;
}

let fresh_ordinal st =
  let o = st.next_ordinal in
  st.next_ordinal <- o + 1;
  o

let close_link shard =
  Option.iter Conn.close shard.link;
  shard.link <- None

let spawn_worker st shard =
  let index = shard.worker.Supervisor.index in
  Tracing.Tracer.with_span ~id:index
    ~label:(Printf.sprintf "shard%d" index)
    Tracing.Span.Shard_spawn
  @@ fun () ->
  let socket_path = shard.worker.Supervisor.socket_path in
  match
    Supervisor.spawn ~exe:st.options.worker_exe
      ~args:("serve" :: "--socket" :: socket_path :: st.options.worker_args)
      shard.worker
  with
  | Error _ as e -> e
  | Ok () -> (
      match
        Supervisor.wait_ready shard.worker
          ~timeout_ms:st.options.spawn_timeout_ms
      with
      | Error _ as e -> e
      | Ok () -> (
          close_link shard;
          match Conn.connect socket_path with
          | Ok link ->
              shard.link <- Some link;
              Ok ()
          | Error e ->
              Error (Printf.sprintf "shard %d: cannot connect: %s" index e)))

(* Queue every unsent pending entry on the worker link, in ordinal
   order. An entry counts as sent once it is queued. *)
let send_pending shard =
  match shard.link with
  | Some link when not (Conn.dead link) ->
      List.iter
        (fun entry ->
          if not entry.sent then begin
            Conn.send link (entry.line ^ "\n");
            entry.sent <- true;
            entry.sent_at <- Metrics.now_s ()
          end)
        shard.entries;
      if Conn.dead link then Error "write to worker failed" else Ok ()
  | Some _ | None -> Error "no worker connection"

let finish_fanout st agg =
  agg.agg_client.inflight <- agg.agg_client.inflight - 1;
  let counters = st.counters and shards = st.shards in
  respond_local agg.agg_client
    (match agg.agg_route with
    | "health" -> compose_health ~counters ~shards agg
    | _ -> compose_stats ~counters ~shards agg);
  st.served <- st.served + 1

let record_part st agg index part =
  agg.agg_parts <- (index, part) :: agg.agg_parts;
  agg.agg_waiting <- agg.agg_waiting - 1;
  if agg.agg_waiting <= 0 then finish_fanout st agg

(* Answer (or account) one pending entry that will never get a worker
   response — shard declared unusable. *)
let abandon_entry st shard entry =
  let index = shard.worker.Supervisor.index in
  match entry.kind with
  | Probe -> ()
  | Relay { client; id; route = _ } ->
      client.inflight <- client.inflight - 1;
      respond_local client
        (Protocol.error_response ~id ~code:"shard_unavailable"
           ~extra:[ ("shard", Json.Int index) ]
           "shard worker unavailable");
      st.served <- st.served + 1
  | Fanout agg -> record_part st agg index None

(* Handle one complete response line from a worker. Unmatched ordinals
   (e.g. a duplicate surfacing after a replay already answered) are
   dropped: a client hears exactly one response per request. *)
let handle_worker_line st shard line =
  match response_ordinal line with
  | None -> ()
  | Some (ordinal, rest_at) -> (
      match List.find_opt (fun e -> e.ordinal = ordinal) shard.entries with
      | None -> ()
      | Some entry -> (
          shard.entries <-
            List.filter (fun e -> e.ordinal <> ordinal) shard.entries;
          match entry.kind with
          | Probe -> ()
          | Relay { client; id; route = _ } ->
              client.inflight <- client.inflight - 1;
              Conn.send client.conn (restore_id ~id line rest_at ^ "\n");
              st.served <- st.served + 1
          | Fanout agg ->
              let part =
                match Json.decode line with
                | Ok json -> Some json
                | Error _ -> None
              in
              record_part st agg shard.worker.Supervisor.index part))

(* Relay the complete lines a worker has written; a partial tail stays
   buffered on the link. *)
let relay st shard =
  Option.iter
    (fun link ->
      List.iter
        (function
          | Conn.Line line -> handle_worker_line st shard line
          | Conn.Too_large -> ())
        (Conn.lines link))
    shard.link

let abandon_shard st shard =
  close_link shard;
  Supervisor.kill shard.worker;
  shard.down <- true;
  List.iter (abandon_entry st shard) shard.entries;
  shard.entries <- []

(* Failover: salvage already-committed responses, kill and respawn the
   worker, replay what is still owed. Bounded respawn attempts; a shard
   that cannot come back is marked down and its pending work answered
   with a structured error (revival retries continue from the probe
   tick). *)
let failover st ~reason shard =
  let index = shard.worker.Supervisor.index in
  Tracing.Counters.bump st.counters Router_failovers;
  Tracing.Tracer.with_span
    ~id:(Tracing.Counters.get st.counters Router_failovers)
    ~label:(Printf.sprintf "shard%d" index)
    Tracing.Span.Router_failover
  @@ fun () ->
  Printf.eprintf "rexspeed serve: router: shard %d failover (%s)\n%!" index
    reason;
  (* Responses the worker already produced are committed work: relay
     them instead of recomputing. The partial tail is dropped with the
     link — its entry stays pending and is replayed whole. *)
  Option.iter Conn.read shard.link;
  relay st shard;
  close_link shard;
  Supervisor.kill shard.worker;
  let rec attempt k =
    match spawn_worker st shard with
    | Ok () -> Ok ()
    | Error e ->
        Supervisor.kill shard.worker;
        if k >= max_respawn_attempts then Error e else attempt (k + 1)
  in
  (match attempt 1 with
  | Ok () -> (
      shard.down <- false;
      shard.worker.Supervisor.respawns <- shard.worker.Supervisor.respawns + 1;
      Tracing.Counters.bump st.counters Shard_respawns;
      let replayed = ref 0 in
      List.iter
        (fun entry ->
          if entry.sent then begin
            entry.sent <- false;
            incr replayed
          end)
        shard.entries;
      Tracing.Counters.bump st.counters ~n:!replayed Router_replays;
      match send_pending shard with
      | Ok () -> ()
      | Error _ ->
          (* Freshly spawned yet unwritable: give up on the shard for
             now rather than recurse. *)
          abandon_shard st shard)
  | Error e ->
      Printf.eprintf "rexspeed serve: router: shard %d down (%s)\n%!" index e;
      abandon_shard st shard);
  shard.last_probe_at <- Metrics.now_s ()

let enqueue st shard entry =
  shard.entries <- shard.entries @ [ entry ];
  if not shard.down then
    match send_pending shard with
    | Ok () -> ()
    | Error reason -> failover st ~reason shard

let new_entry ordinal line kind =
  { ordinal; line; kind; sent = false; sent_at = 0. }

let fanout st client ~id route =
  client.inflight <- client.inflight + 1;
  let down, live = List.partition (fun s -> s.down) (Array.to_list st.shards) in
  let agg =
    {
      agg_client = client;
      agg_id = id;
      agg_route = route;
      agg_waiting = List.length live;
      agg_parts = List.map (fun s -> (s.worker.Supervisor.index, None)) down;
    }
  in
  if live = [] then finish_fanout st agg
  else
    List.iter
      (fun shard ->
        let ordinal = fresh_ordinal st in
        enqueue st shard
          (new_entry ordinal
             (Printf.sprintf "{\"id\":%d,\"route\":%s}" ordinal
                (Json.encode (Json.String route)))
             (Fanout agg)))
      live

let route_line st client line =
  let ordinal = fresh_ordinal st in
  Tracing.Tracer.with_span ~id:ordinal Tracing.Span.Router_route @@ fun () ->
  let answer response =
    respond_local client response;
    st.served <- st.served + 1
  in
  match Json.decode line with
  | Error e ->
      answer
        (Protocol.error_response ~id:Json.Null ~code:"parse"
           ~extra:[ ("position", Json.Int e.position) ]
           e.message)
  | Ok json -> (
      let id = Option.value (Json.member "id" json) ~default:Json.Null in
      match Protocol.parse json with
      | Error reason ->
          answer (Protocol.error_response ~id ~code:"bad-request" reason)
      | Ok Protocol.Health -> fanout st client ~id "health"
      | Ok Protocol.Stats -> fanout st client ~id "stats"
      | Ok request ->
          let index = Shard_map.lookup st.map (Protocol.fingerprint request) in
          Tracing.Counters.bump st.counters Router_routed;
          let shard = st.shards.(index) in
          if shard.down then
            answer
              (Protocol.error_response ~id ~code:"shard_unavailable"
                 ~extra:[ ("shard", Json.Int index) ]
                 "shard worker unavailable")
          else begin
            client.inflight <- client.inflight + 1;
            enqueue st shard
              (new_entry ordinal
                 (rewrite_request ~ordinal line)
                 (Relay { client; id; route = Protocol.route request }))
          end)

let handle_client_lines st client =
  let max_bytes = st.options.max_request_bytes in
  List.iter
    (function
      | Conn.Line line -> route_line st client line
      | Conn.Too_large -> respond_local client (Protocol.too_large ~max_bytes))
    (Conn.lines ~max_bytes client.conn)

(* Liveness: process exits caught by waitpid, wedged workers by a
   stalled health probe, down shards periodically revived. *)
let probe_tick st =
  let now = Metrics.now_s () in
  let is_probe e =
    match e.kind with Probe -> true | Relay _ | Fanout _ -> false
  in
  Array.iter
    (fun shard ->
      if shard.down then begin
        if now -. shard.last_probe_at > revive_interval_s then begin
          shard.last_probe_at <- now;
          failover st ~reason:"revival attempt" shard
        end
      end
      else if not (Supervisor.alive shard.worker) then
        failover st ~reason:"worker process exited" shard
      else if
        List.exists
          (fun e ->
            is_probe e && e.sent && now -. e.sent_at > st.probe_timeout_s)
          shard.entries
      then failover st ~reason:"health probe stalled" shard
      else if
        now -. shard.last_probe_at > probe_interval_s
        && not (List.exists is_probe shard.entries)
      then begin
        shard.last_probe_at <- now;
        let ordinal = fresh_ordinal st in
        enqueue st shard
          (new_entry ordinal
             (Printf.sprintf "{\"id\":%d,\"route\":\"health\"}" ordinal)
             Probe)
      end)
    st.shards

let sweep st ~accepting ~timeout =
  let links = List.filter_map (fun s -> s.link) (Array.to_list st.shards) in
  let events =
    Conn.poll
      ~listeners:(if accepting then st.listeners else [])
      (links @ List.map (fun c -> c.conn) st.clients)
      ~give_up_s:write_give_up_s ~timeout
  in
  st.clients <-
    st.clients @ List.map (fun conn -> { conn; inflight = 0 }) events.accepted;
  Array.iter
    (fun shard ->
      match shard.link with
      | None -> ()
      | Some link ->
          relay st shard;
          if Conn.eof link then
            failover st shard
              ~reason:
                (if List.memq link events.timed_out then "worker link stalled"
                 else "worker connection closed"))
    st.shards;
  List.iter
    (fun c -> if not (Conn.dead c.conn) then handle_client_lines st c)
    st.clients;
  probe_tick st;
  (* Close a client at EOF only once its answers are out. Entries owed
     to a dropped client still complete on their worker; a dead
     connection discards their responses. *)
  let gone, live =
    List.partition
      (fun c -> Conn.dead c.conn || (Conn.drained c.conn && c.inflight <= 0))
      st.clients
  in
  List.iter (fun c -> Conn.close c.conn) gone;
  st.clients <- live

(* Drain: stop accepting, answer everything in flight plus any
   fully-received request still in a socket buffer, then stop the
   fleet. Time-bounded so a wedged worker cannot hang shutdown:
   leftovers get a structured error. A client is read again only once
   its answers are out, so a sweep that began with bytes to write is
   never a quiet one. *)
let drain st =
  List.iter Conn.close_listener st.listeners;
  let give_up_at = Metrics.now_s () +. 30. in
  let writing () = List.exists (fun c -> Conn.unwritten c.conn) st.clients in
  let quiet = ref 0 in
  while
    (in_flight st.shards > 0 || writing () || !quiet < 2)
    && Metrics.now_s () < give_up_at
  do
    let before = st.served and was_writing = writing () in
    sweep st ~accepting:false ~timeout:0.05;
    if in_flight st.shards = 0 && st.served = before && not was_writing then
      incr quiet
    else quiet := 0
  done;
  Array.iter
    (fun shard ->
      List.iter (abandon_entry st shard) shard.entries;
      shard.entries <- [])
    st.shards;
  List.iter (fun c -> Conn.close c.conn) st.clients;
  st.clients <- []

let validate (options : options) =
  Result.bind
    (Conn.check_endpoints ~port:options.port ~socket_path:options.socket_path)
  @@ fun () ->
  if options.shards < 1 || options.shards > 64 then
    Error "--shards must be in 1..64"
  else if options.spawn_timeout_ms < 1 then
    Error "--shard-spawn-timeout-ms must be >= 1"
  else if options.max_request_bytes < 2 then
    Error "--max-request-bytes must be at least 2"
  else Ok ()

let create (options : options) listeners =
  let runtime_dir = make_runtime_dir () in
  {
    options;
    listeners;
    runtime_dir;
    counters = Tracing.Counters.create ();
    map = Shard_map.create ~shards:options.shards;
    shards =
      Array.init options.shards (fun i ->
          {
            worker =
              Supervisor.make ~index:i
                ~socket_path:
                  (Filename.concat runtime_dir
                     (Printf.sprintf "worker-%d.sock" i));
            link = None;
            entries = [];
            last_probe_at = 0.;
            down = false;
          });
    probe_timeout_s =
      Float.max 2. (float_of_int options.spawn_timeout_ms /. 1000.);
    clients = [];
    next_ordinal = 0;
    served = 0;
  }

let cleanup st =
  Array.iter
    (fun shard ->
      close_link shard;
      Supervisor.terminate shard.worker ~grace_ms:5_000)
    st.shards;
  (try Unix.rmdir st.runtime_dir with Unix.Unix_error _ -> ());
  Option.iter
    (fun path -> try Unix.unlink path with Unix.Unix_error _ -> ())
    st.options.socket_path

(* Spawn the whole fleet before accepting traffic, then route until
   stopped and drain. *)
let serve ?on_ready st =
  let startup =
    Array.fold_left
      (fun acc shard ->
        match acc with Error _ as e -> e | Ok () -> spawn_worker st shard)
      (Ok ()) st.shards
  in
  match startup with
  | Error e ->
      List.iter Conn.close_listener st.listeners;
      Error e
  | Ok () ->
      if st.options.handle_signals then begin
        Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop ()));
        Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop ()))
      end;
      List.iter
        (fun l ->
          Printf.eprintf
            "rexspeed serve: router listening on %s (%d shards)\n%!"
            (Conn.endpoint l) st.options.shards)
        st.listeners;
      Option.iter (fun f -> f ()) on_ready;
      while not (Atomic.get stop_requested) do
        sweep st ~accepting:true ~timeout:0.2
      done;
      drain st;
      Printf.eprintf
        "rexspeed serve: router drained, %d response(s) relayed\n%!"
        st.served;
      Ok ()

let run ?on_ready options =
  match validate options with
  | Error _ as e -> e
  | Ok () -> (
      match Conn.listen ~port:options.port ~socket_path:options.socket_path with
      | Error _ as e -> e
      | Ok listeners ->
          Atomic.set stop_requested false;
          let st = create options listeners in
          let previous_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
          Fun.protect
            ~finally:(fun () ->
              cleanup st;
              ignore (Sys.signal Sys.sigpipe previous_sigpipe))
            (fun () -> serve ?on_ready st))
