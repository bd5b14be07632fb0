(** The [rexspeed serve] daemon: a long-lived, cache-fronted query
    front end over the BiCrit solvers.

    Listens on TCP (loopback) and/or a Unix-domain socket, speaks
    newline-delimited JSON (see [Server.Protocol]), and amortizes the
    per-invocation fixed costs of the one-shot CLI — process start,
    configuration lookup, and above all the O(K^2) speed-pair
    enumeration — across requests via an LRU result cache keyed by the
    request fingerprint.

    {2 Concurrency model}

    One dispatcher domain owns every socket, the cache and the
    metrics; solver work fans out over a [Parallel.Pool]. The daemon
    is a request handler over {!Conn}: each sweep is one [select] over
    the listeners, every connection that may be read and every
    connection with unwritten bytes. The sweep admits complete request
    lines into a bounded queue and dispatches one batch of at most
    [max_inflight] requests: cache hits and [health]/[stats] answer
    inline, the batch of cache misses maps over the pool (a single
    miss runs on the dispatcher so the solver's own internal
    parallelism is preserved).

    A response is written at once; whatever the kernel does not take
    waits in its connection's queue until [select] finds the socket
    writable. A client with unwritten responses is not read again
    until they drain, so a client that pipelines without reading
    stops being served and holds up no one else. Responses go back in
    request order per connection — except shed responses, which are
    written at admission time; pipelined clients correlate by [id].
    Because the solvers are
    bit-identical for any domain count and the cache stores rendered
    bytes, a served [output] equals the one-shot CLI stdout at any
    [--domains], cache on or off.

    {2 Hardening}

    Four orthogonal guards keep an overloaded, attacked or faulty
    daemon answering: {b deadlines} ([deadline_ms]) expire requests
    that waited or computed too long with a structured
    [deadline_exceeded] error; {b load shedding} ([max_queue]) bounds
    the admission queue and answers the overflow immediately with a
    [shed] error carrying [retry_after_ms]; {b I/O timeouts}
    ([io_timeout_ms]) drop a connection whose oldest unwritten
    response has waited too long, or that stalled mid-request;
    {b verified re-execution}
    ([verify_sample]) re-executes every Nth computed miss and compares
    response fingerprints ([Resilience.Checksum]) before commit — on
    divergence one authoritative re-execution decides, so a silently
    corrupted computation is caught before it reaches the wire or the
    cache. Worker-domain deaths below the daemon are handled by the
    pool's supervisor ([Parallel.Pool]); restarts surface in the
    [health] route.

    {2 Telemetry}

    Each daemon owns one counter registry ({!Tracing.Counters}). Every
    event is counted once, by one call that also counts it in the
    active trace session: cache hits and misses, sheds, deadline
    expiries, I/O timeouts, verify checks and divergences. [health]
    and [stats] read the registry ([shed], [deadline_exceeded],
    [io_timeouts], [verify.checks], [verify.divergences],
    [cache.hits], [cache.misses], [cache.hit_rate]); [workers.restarts]
    is the pool's own registry. A request's latency is measured once,
    from its admission to the moment its last byte is written or its
    connection dies, and the same interval feeds the [stats] latency
    of its route and its [daemon.request] trace span. A shed request
    is admitted and answered at once.

    {2 Shutdown}

    SIGINT/SIGTERM (or {!stop}) triggers a graceful drain: listeners
    close, every admitted request — queued-but-unstarted ones included
    — and every fully-received request still in a socket buffer is
    answered (shedding off), then connections close and {!run}
    returns. The Unix socket path is unlinked on every exit, clean or
    crashed, and at startup a leftover socket file is removed only
    after a liveness probe proves no daemon owns it. Malformed input
    never kills the daemon — it is answered with a structured JSON
    error (and the connection closed, once answered, only when a
    request overruns the size limit mid-line, where no message
    boundary is left to resynchronize on). *)

type options = {
  port : int option;  (** TCP listener on 127.0.0.1, if given. *)
  socket_path : string option;
      (** Unix-domain listener, if given; a stale socket file is
          replaced only after a liveness probe proves it abandoned.
          At least one listener is required. *)
  cache_entries : int;  (** LRU capacity; [0] disables caching. *)
  max_request_bytes : int;  (** Reject request lines longer than this. *)
  max_inflight : int;
      (** Cap on requests handed to the pool per dispatch round. *)
  log_every : int;
      (** Emit a stderr stats line every N completed requests;
          [0] disables. *)
  handle_signals : bool;
      (** Install SIGINT/SIGTERM drain handlers ([true] from the CLI;
          in-process harnesses use {!stop} instead). *)
  deadline_ms : int;
      (** Per-request compute deadline: a request older than this when
          dispatched, or whose computation finishes past it, is
          answered with a [deadline_exceeded] error. [0] disables. *)
  io_timeout_ms : int;
      (** Give-up time per connection: one whose oldest unwritten
          response is older than this is dropped and the response
          counts as failed, as is one stalled mid-request for longer.
          Only that connection is affected. [0] disables (waits
          forever). *)
  max_queue : int;
      (** Bound on the admission queue; overflowing requests are shed
          with a structured [shed] error carrying [retry_after_ms].
          [0] means unbounded. *)
  verify_sample : int;
      (** Re-execute every Nth computed cache miss and compare
          response fingerprints before committing; mismatches count as
          [verify.divergences] and trigger one authoritative
          re-execution. [0] disables. *)
}

val default_options : options
(** No listeners, 256 cache entries, 1 MiB request limit, 64 in
    flight, no periodic log, signals handled; no deadline, 30 s I/O
    timeout, unbounded queue, verification off. *)

val stop : unit -> unit
(** Request a graceful drain of the running daemon; safe to call from
    a signal handler or another domain. *)

val validate : options -> (unit, string) result
(** [Error] naming the offending flag: the endpoints
    ({!Conn.check_endpoints}), then every numeric option. {!run} calls
    it first; the CLI calls it before anything starts, so an invalid
    option is a usage error. *)

val run :
  ?pool:Parallel.Pool.t -> ?on_ready:(unit -> unit) -> options ->
  (unit, string) result
(** Serve until drained. [on_ready] fires once listeners are bound
    (test/bench synchronization). [Error message] reports an invalid
    option, a listener that could not be bound, or a socket path owned
    by a live daemon; [Ok ()] is a clean drain. *)
