(* The consistent-hash shard router: a request handler over [Conn],
   single-threaded like the daemon's dispatcher. One sweep's
   [Conn.poll] covers the public listeners, every client connection
   and one pipelined link per worker, and is the only place the router
   waits. Worker links are read on every sweep whatever the router
   still has queued for them, and a line is queued on its link as soon
   as the router owes it, so the router and a worker never deadlock
   writing to each other. *)

type options = {
  port : int option;
  socket_path : string option;
  shards : int;
  spawn_timeout_ms : int;
  max_request_bytes : int;
  worker_exe : string;
  worker_args : string list;
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
  }

(* How long queued bytes may wait on a stuck peer before its connection
   is dropped, how often each worker is probed, and how long an
   unanswered probe may age before the worker is failed over. *)
let write_give_up_s = 30.
let probe_interval_s = 0.5
let revive_interval_s = 2.0
let max_respawn_attempts = 3

let respond_local client response =
  Conn.answer client (Json.encode_line response)

(* ------------------------------------------------------------------ *)
(* Owed work                                                           *)

(* A fleet-wide fan-out ([health]/[stats]) in progress: one leg per
   live shard, composed into a single response when the last leg
   lands. A down shard's part stays [None]. *)
type agg = {
  agg_client : Conn.t;
  agg_id : Json.t;
  agg_route : string;
  mutable agg_waiting : int;
  agg_parts : Json.t option array;  (* indexed by shard *)
}

(* What a worker's answer to an owed line completes. *)
type owed = Relay of { client : Conn.t; id : Json.t } | Fanout of agg

(* Each shard's owed lines by ordinal. Answers are matched by ordinal
   and may come in any order (a shedding worker answers its sheds
   first); a map keeps failover replay in ordinal order without a sort
   or a Hashtbl's iteration order. *)
module Ordinals = Map.Make (Int)

type shard = {
  worker : Supervisor.worker;
  mutable link : Conn.t option;
  mutable owed : (string * owed) Ordinals.t;  (* lines end in "\n" *)
  mutable probe : (int * float) option;  (* unanswered: ordinal, sent at *)
  mutable last_probe_at : float;
  mutable down : bool;
}

(* ------------------------------------------------------------------ *)
(* Id rewriting and response splicing                                  *)

let id_prefix = "{\"id\":"

(* Forwarded requests get the router ordinal spliced in as a duplicate
   first member: the daemon's decoder keeps duplicates and
   [Json.member] returns the first, so the worker echoes the ordinal
   while the client's own [id] member rides along untouched. Only
   lines that already parsed as valid requests reach this point, so
   the object is never empty (it has at least "route"). The line is
   built in one allocation: {"id":, the ordinal's digits, a comma, the
   bytes after the client's '{', and "\n". *)
let rewrite_request ~ordinal line =
  match String.index_opt line '{' with
  | Some i ->
      let rec width n = if n < 10 then 1 else 1 + width (n / 10) in
      let comma = String.length id_prefix + width ordinal in
      let rest = String.length line - i - 1 in
      let b = Bytes.create (comma + 1 + rest + 1) in
      Bytes.blit_string id_prefix 0 b 0 (String.length id_prefix);
      let rec digits b n at =
        Bytes.set b at (Char.chr (Char.code '0' + (n mod 10)));
        if n >= 10 then digits b (n / 10) (at - 1)
      in
      digits b ordinal (comma - 1);
      Bytes.set b comma ',';
      Bytes.blit_string line (i + 1) b (comma + 1) rest;
      Bytes.set b (comma + 1 + rest) '\n';
      Bytes.unsafe_to_string b
  | None -> id_prefix ^ string_of_int ordinal ^ "}\n" (* unreachable *)

(* A fan-out leg or a probe: a parameterless request under an ordinal. *)
let route_request ~ordinal route =
  Printf.sprintf "{\"id\":%d,\"route\":\"%s\"}\n" ordinal route

(* A worker's line limit: the client's plus the longest splice
   [rewrite_request] makes ("id":, a 19-digit ordinal and a comma), so
   every line the router forwards fits the worker. *)
let worker_line_limit max_bytes =
  let splice =
    String.length "\"id\":," + String.length (string_of_int max_int)
  in
  if max_bytes > max_int - splice then max_int else max_bytes + splice

(* Every forwarded line fits its worker and every daemon response
   builder emits [id] as the first member, so a worker answer starts
   {"id":<ordinal>, — parse just that prefix and remember where the
   rest begins (the comma). A line without the prefix matches no
   owed line and is dropped. *)
let response_ordinal line =
  let plen = String.length id_prefix and n = String.length line in
  if not (String.starts_with ~prefix:id_prefix line) then None
  else begin
    let i = ref plen in
    while !i < n && line.[!i] >= '0' && line.[!i] <= '9' do
      incr i
    done;
    if !i > plen && !i < n && line.[!i] = ',' then
      Option.map
        (fun ordinal -> (ordinal, !i))
        (int_of_string_opt (String.sub line plen (!i - plen)))
    else None
  end

(* Restore the client's id by splicing bytes: the relayed payload —
   [output] above all — stays exactly the worker's bytes. The answer
   is built in one exactly-sized string: {"id":, the client's id, the
   worker's bytes after its ordinal, and "\n". *)
let restore_id ~id line rest_at =
  let id = Json.encode id in
  let plen = String.length id_prefix and ilen = String.length id in
  let rest = String.length line - rest_at in
  let b = Bytes.create (plen + ilen + rest + 1) in
  Bytes.blit_string id_prefix 0 b 0 plen;
  Bytes.blit_string id 0 b plen ilen;
  Bytes.blit_string line rest_at b (plen + ilen) rest;
  Bytes.set b (plen + ilen + rest) '\n';
  Bytes.unsafe_to_string b

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
  Array.fold_left
    (fun acc part ->
      match part with Some json -> acc + int_at path json | None -> acc)
    0 parts

(* Client requests and fan-out legs still owed an answer. *)
let in_flight shards =
  Array.fold_left (fun acc s -> acc + Ordinals.cardinal s.owed) 0 shards

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
  let any_down =
    Array.exists (fun s -> s.down) shards
    || Array.exists Option.is_none agg.agg_parts
  in
  let shard_json i part =
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
            ( "shard",
              Json.List (Array.to_list (Array.mapi shard_json agg.agg_parts))
            );
          ] );
    ]

let compose_stats ~counters ~shards agg =
  let sum path = Json.Int (sum_parts agg.agg_parts ("result" :: path)) in
  let shard_json i part =
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
            ( "shard",
              Json.List (Array.to_list (Array.mapi shard_json agg.agg_parts))
            );
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
  front : Conn.front;
  runtime_dir : string;
  counters : Tracing.Counters.t;
  map : Shard_map.t;
  shards : shard array;
  probe_timeout_s : float;
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
      ~args:
        ("serve" :: "--socket" :: socket_path :: "--max-request-bytes"
        :: string_of_int (worker_line_limit st.options.max_request_bytes)
        :: st.options.worker_args)
      shard.worker
  with
  | Error _ as e -> e
  | Ok () ->
      Result.map
        (fun link -> shard.link <- Some link)
        (Supervisor.wait_ready shard.worker
           ~timeout_ms:st.options.spawn_timeout_ms)

(* Queue one line on the shard's worker link. An [Error] names what
   failed: the link, never the line. *)
let write shard line =
  match shard.link with
  | Some link when not (Conn.dead link) ->
      Conn.send link line;
      if Conn.dead link then Error "write to worker failed" else Ok ()
  | Some _ | None -> Error "no worker connection"

let finish_fanout st agg =
  let counters = st.counters and shards = st.shards in
  respond_local agg.agg_client
    (match agg.agg_route with
    | "health" -> compose_health ~counters ~shards agg
    | _ -> compose_stats ~counters ~shards agg);
  st.served <- st.served + 1

let unavailable ~id index =
  Protocol.error_response ~id ~code:"shard_unavailable"
    ~extra:[ ("shard", Json.Int index) ]
    "shard worker unavailable"

(* Complete one owed line: with its worker's [answer] line (and where
   the bytes after its ordinal begin), or, with [None], for a shard that
   will never answer it. *)
let settle st shard owed answer =
  let index = shard.worker.Supervisor.index in
  match owed with
  | Relay { client; id } ->
      (match answer with
      | Some (line, rest_at) ->
          Conn.answer client (restore_id ~id line rest_at)
      | None -> respond_local client (unavailable ~id index));
      st.served <- st.served + 1
  | Fanout agg ->
      agg.agg_parts.(index) <-
        Option.bind answer (fun (line, _) ->
            Result.to_option (Json.decode line));
      agg.agg_waiting <- agg.agg_waiting - 1;
      if agg.agg_waiting <= 0 then finish_fanout st agg

(* Handle one complete response line from a worker. Unmatched ordinals
   (e.g. a duplicate surfacing after a replay already answered) are
   dropped: a client hears exactly one response per request. *)
let handle_worker_line st shard line =
  match response_ordinal line with
  | None -> ()
  | Some (ordinal, rest_at) -> (
      match shard.probe with
      | Some (probe, _) when probe = ordinal -> shard.probe <- None
      | Some _ | None -> (
          match Ordinals.find_opt ordinal shard.owed with
          | None -> ()
          | Some (_, owed) ->
              shard.owed <- Ordinals.remove ordinal shard.owed;
              settle st shard owed (Some (line, rest_at))))

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

(* Answer everything owed on a shard that will never answer it. *)
let abandon_owed st shard =
  Ordinals.iter (fun _ (_, owed) -> settle st shard owed None) shard.owed;
  shard.owed <- Ordinals.empty

let abandon_shard st shard =
  close_link shard;
  Supervisor.kill shard.worker;
  shard.down <- true;
  abandon_owed st shard

(* Failover: salvage already-committed responses, kill and respawn the
   worker, write every owed line again in ordinal order. An
   outstanding probe is dropped; the fresh worker gets its own on a
   later tick. Bounded respawn attempts; a shard that cannot come back
   is marked down and its owed work answered with a structured error
   (revival retries continue from the probe tick). *)
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
     link — its line stays owed and is replayed whole. *)
  Option.iter Conn.read shard.link;
  relay st shard;
  close_link shard;
  Supervisor.kill shard.worker;
  shard.probe <- None;
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
      Tracing.Counters.bump st.counters ~n:(Ordinals.cardinal shard.owed)
        Router_replays;
      match
        Ordinals.fold
          (fun _ (line, _) written ->
            Result.bind written (fun () -> write shard line))
          shard.owed (Ok ())
      with
      | Ok () -> ()
      | Error _ ->
          (* Freshly spawned yet unwritable: give up on the shard for
             now rather than recurse. *)
          abandon_shard st shard)
  | Error e ->
      Printf.eprintf "rexspeed serve: router: shard %d down (%s)\n%!" index e;
      abandon_shard st shard);
  shard.last_probe_at <- Metrics.now_s ()

let send_or_failover st shard line =
  match write shard line with
  | Ok () -> ()
  | Error reason -> failover st ~reason shard

(* Owe [line]'s answer on a live shard and write it at once. *)
let enqueue st shard ordinal line owed =
  shard.owed <- Ordinals.add ordinal (line, owed) shard.owed;
  send_or_failover st shard line

let fanout st client ~id route =
  let agg =
    {
      agg_client = client;
      agg_id = id;
      agg_route = route;
      agg_waiting =
        Array.fold_left (fun n s -> if s.down then n else n + 1) 0 st.shards;
      agg_parts = Array.make (Array.length st.shards) None;
    }
  in
  if agg.agg_waiting = 0 then finish_fanout st agg
  else
    Array.iter
      (fun shard ->
        if not shard.down then begin
          let ordinal = fresh_ordinal st in
          enqueue st shard ordinal (route_request ~ordinal route) (Fanout agg)
        end)
      st.shards

let route_line st client line =
  let ordinal = fresh_ordinal st in
  Tracing.Tracer.with_span ~id:ordinal Tracing.Span.Router_route @@ fun () ->
  let answer response =
    respond_local client response;
    st.served <- st.served + 1
  in
  match Protocol.read line with
  | Error response -> answer response
  | Ok (id, Protocol.Health) -> fanout st client ~id "health"
  | Ok (id, Protocol.Stats) -> fanout st client ~id "stats"
  | Ok (id, request) ->
      let index = Shard_map.lookup st.map (Protocol.fingerprint request) in
      Tracing.Counters.bump st.counters Router_routed;
      let shard = st.shards.(index) in
      if shard.down then answer (unavailable ~id index)
      else
        enqueue st shard ordinal
          (rewrite_request ~ordinal line)
          (Relay { client; id })

(* Liveness: wedged workers caught by a stalled health probe, down
   shards periodically revived. A worker's exit closes its end of the
   link, so the sweep sees it as the link's EOF; [waitpid] only runs
   when a probe is due, not on every sweep. *)
let probe_tick st =
  let now = Metrics.now_s () in
  Array.iter
    (fun shard ->
      if shard.down then begin
        if now -. shard.last_probe_at > revive_interval_s then begin
          shard.last_probe_at <- now;
          failover st ~reason:"revival attempt" shard
        end
      end
      else
        match shard.probe with
        | Some (_, sent_at) ->
            if now -. sent_at > st.probe_timeout_s then
              failover st ~reason:"health probe stalled" shard
        | None ->
            if now -. shard.last_probe_at > probe_interval_s then
              if not (Supervisor.alive shard.worker) then
                failover st ~reason:"worker process exited" shard
              else begin
                shard.last_probe_at <- now;
                let ordinal = fresh_ordinal st in
                shard.probe <- Some (ordinal, now);
                send_or_failover st shard (route_request ~ordinal "health")
              end)
    st.shards

let sweep st ~timeout =
  let links = List.filter_map (fun s -> s.link) (Array.to_list st.shards) in
  let timed_out = Conn.poll st.front ~links ~timeout () in
  Array.iter
    (fun shard ->
      match shard.link with
      | None -> ()
      | Some link ->
          relay st shard;
          if Conn.eof link then
            failover st shard
              ~reason:
                (if List.memq link timed_out then "worker link stalled"
                 else "worker connection closed"))
    st.shards;
  let max_bytes = st.options.max_request_bytes in
  Conn.each_line st.front ~max_bytes (fun client -> function
    | Conn.Line line -> route_line st client line
    | Conn.Too_large -> respond_local client (Protocol.too_large ~max_bytes));
  probe_tick st

(* Drain: answer everything live clients are owed plus any
   fully-received request still in a socket buffer, within the front's
   bound, then answer what is still owed with [shard_unavailable]: a
   wedged worker cannot hang shutdown. Lines owed to a client that has
   closed are not waited for. *)
let drain st =
  Conn.drain st.front ~round:(fun ~timeout -> sweep st ~timeout);
  Array.iter (abandon_owed st) st.shards

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

let create (options : options) front =
  let runtime_dir = make_runtime_dir () in
  {
    options;
    front;
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
            owed = Ordinals.empty;
            probe = None;
            last_probe_at = 0.;
            down = false;
          });
    probe_timeout_s =
      Float.max 2. (float_of_int options.spawn_timeout_ms /. 1000.);
    next_ordinal = 0;
    served = 0;
  }

let cleanup st =
  Array.iter
    (fun shard ->
      close_link shard;
      Supervisor.terminate shard.worker ~grace_ms:5_000)
    st.shards;
  try Unix.rmdir st.runtime_dir with Unix.Unix_error _ -> ()

(* Spawn the whole fleet before accepting traffic, then route until
   stopped and drain. A stop that lands during startup spawns no
   further worker and ends the run there: nothing was admitted, so
   there is nothing to drain, and [cleanup] terminates the workers
   already spawned. *)
let serve ?on_ready ~stop st =
  let startup =
    Array.fold_left
      (fun acc shard ->
        match acc with
        | Error _ as e -> e
        | Ok () -> if Atomic.get stop then acc else spawn_worker st shard)
      (Ok ()) st.shards
  in
  match startup with
  | Error _ as e -> e
  | Ok () when Atomic.get stop -> Ok ()
  | Ok () ->
      List.iter
        (fun endpoint ->
          Printf.eprintf
            "rexspeed serve: router listening on %s (%d shards)\n%!" endpoint
            st.options.shards)
        (Conn.endpoints st.front);
      Option.iter (fun f -> f ()) on_ready;
      while not (Atomic.get stop) do
        sweep st ~timeout:0.2
      done;
      drain st;
      Printf.eprintf
        "rexspeed serve: router drained, %d response(s) relayed\n%!"
        st.served;
      Ok ()

let run ?on_ready ~stop options =
  Result.bind (validate options) @@ fun () ->
  Conn.serve ~port:options.port ~socket_path:options.socket_path
    ~give_up_s:write_give_up_s
  @@ fun front ->
  let st = create options front in
  Fun.protect ~finally:(fun () -> cleanup st) (fun () -> serve ?on_ready ~stop st)
