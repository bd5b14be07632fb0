(** The sharded serving front end: a consistent-hash router over N
    shared-nothing daemon worker processes.

    {2 Topology}

    The router owns the public listeners (TCP loopback and/or Unix
    socket — the same endpoints a single-process daemon would own) and
    spawns [shards] worker processes, each a plain [rexspeed serve]
    daemon on a private Unix socket in a per-run runtime directory.
    Workers are shared-nothing: each has its own LRU cache, its own
    domain pool and its own counter registry ({!Tracing.Counters}). One
    persistent pipelined connection links the router to each worker.

    Like the daemon, the router is a request handler over {!Conn}: one
    [select] per sweep covers the public listeners, every client and
    every worker link, and nothing else waits. {!Conn} keeps the
    clients and counts what each is owed; the router keeps what each
    shard owes. A client with unwritten responses is not read again
    until they drain. A worker link is read on every sweep, and a line
    is queued on its link the moment the router owes it, so the router
    and a worker never deadlock writing to each other.

    {2 Routing}

    Every solver request is routed by {!Shard_map.lookup} on its
    {!Protocol.fingerprint} — the same FNV-1a key the worker's cache
    uses — so a repeated request always lands on the one warm cache
    that has seen it before. [health] and [stats] fan out to every
    live worker and aggregate into a fleet-wide response that keeps
    each per-shard report under a [shard] array and adds a [router]
    section: the routed/failovers/respawns/replayed counts of the
    router's own registry, where each event is counted by one call that
    also reaches the trace session. Respawns are also kept per worker,
    for the [shard] entries of [health].

    {2 Correlation and byte identity}

    The router rewrites each forwarded request's [id] to a private
    ordinal (prepended as the first member; the daemon's decoder keeps
    duplicate keys and {!Json.member} returns the first) and restores
    the client's original [id] on the way back, splicing bytes rather
    than re-encoding, so the relayed [output] bytes are exactly what
    the worker produced — which the worker in turn guarantees equal to
    the one-shot CLI at any domain count. Each splice builds its line
    in one exactly-sized string, so a relayed answer is copied once
    between the worker's line and the client's.

    Each shard keeps what it owes in one table ordered by ordinal:
    ordinal to the line written to the worker and what its answer
    completes (a client's request or one leg of a fan-out). A line is
    written when it enters the table, and an answer is one lookup and
    one removal by the ordinal it carries, so answers may arrive in any
    order — a worker that sheds ([--max-queue]) answers its sheds
    first. A line whose ordinal is no longer owed is dropped. Health
    probes stay out of the table: each shard has one probe slot, the
    ordinal and send time of its unanswered probe.

    {2 Failover}

    A worker is declared dead when its connection breaks or reaches EOF,
    bytes queued for it wait more than 30 s, or a periodic health probe
    goes unanswered. A worker that exits is seen as its link's EOF, since
    the kernel closes the worker's end of the socket; the router calls
    [waitpid] only on the probe tick, when a shard's probe is due (every
    0.5 s), not on every sweep. Failover then: drains any responses the
    worker already committed, SIGKILLs the process, respawns it (bounded
    retries), and writes the shard's whole table to the fresh worker in
    ordinal order, each line under its original ordinal. An outstanding
    probe is dropped, not replayed; the fresh worker is probed on a later
    tick. So the [replayed] count is the owed client requests and fan-out
    legs written again. A request is answered exactly once: replay only
    covers lines with no committed response, and re-execution on the fresh
    worker reproduces bit-identical bytes, so a worker kill never yields a
    lost, duplicated or divergent response. If respawn fails repeatedly
    the shard is marked down, everything it owes is answered with a
    structured [shard_unavailable] error (a fan-out leg counts as
    missing), and revival keeps being attempted in the background.

    {2 Start-up and shutdown}

    The router binds its public listeners first, then spawns the
    workers one by one; a worker is ready once a connect to its socket
    succeeds, tried every millisecond, and that connection becomes its
    link. Clients are accepted once every worker is ready. A stop sets
    off the daemon's drain ({!Conn.drain}) over the router's clients:
    it stops accepting and routes on until a sweep begins and ends with
    every live client owed nothing and holding no unwritten bytes, or
    for 30 s at most. Lines owed to a client that has already closed
    are not waited for. What is still owed then is answered
    [shard_unavailable]. The workers are SIGTERMed (each drains in
    turn) and reaped, and, on every exit, clean or crashed, the
    clients and listeners close, the public socket is unlinked and
    SIGPIPE is restored ({!Conn.serve}). *)

type options = {
  port : int option;  (** Public TCP listener on 127.0.0.1, if given. *)
  socket_path : string option;
      (** Public Unix-domain listener, if given. At least one public
          listener is required. *)
  shards : int;  (** Worker process count, >= 1. *)
  spawn_timeout_ms : int;
      (** How long a spawned worker may take to accept connections
          before startup (or failover) gives up on it. *)
  max_request_bytes : int;
      (** Reject client lines longer than this. Each worker gets this
          limit plus the longest id splice ("id":, 19 digits and a
          comma), so every line the router forwards fits it and every
          worker answer carries the router's ordinal. *)
  worker_exe : string;  (** Binary to exec for each worker. *)
  worker_args : string list;
      (** Extra [serve] flags forwarded to every worker (cache size,
          deadlines, verification...). The router adds [serve],
          [--socket PATH] and [--max-request-bytes] itself. *)
}

val default_options : options
(** No public listeners, 2 shards, 10 s spawn timeout, 1 MiB request
    limit, ["rexspeed"] worker binary, no extra args. *)

val validate : options -> (unit, string) result
(** [Error] naming the offending flag: the endpoints
    ({!Conn.check_endpoints}), then [shards] in 1..64, the spawn
    timeout and the request size limit. {!run} calls it first. The
    workers' own options are the daemon's ({!Daemon.validate}). *)

val run :
  ?on_ready:(unit -> unit) -> stop:bool Atomic.t -> options ->
  (unit, string) result
(** Spawn the fleet and route until [stop] is set, then drain (see
    Start-up and shutdown above). The flag is the caller's and this run
    only reads it; the CLI's SIGINT/SIGTERM handlers set it and are
    installed before [run] starts. A flag set while the fleet is still
    starting (or before [run]) spawns no further worker and returns
    [Ok ()] without serving; the workers already spawned are
    terminated, so none outlives the router. SIGPIPE is ignored while
    the router runs.
    [on_ready] fires once the public listeners are bound and every
    worker's link is connected. [Error message] reports invalid
    options, an unbindable listener, or a worker that could not be
    spawned at startup. *)
