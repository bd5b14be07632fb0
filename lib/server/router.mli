(** The sharded serving front end: a consistent-hash router over N
    shared-nothing daemon worker processes.

    {2 Topology}

    The router owns the public listeners (TCP loopback and/or Unix
    socket — the same endpoints a single-process daemon would own) and
    spawns [shards] worker processes, each a plain [rexspeed serve]
    daemon on a private Unix socket in a per-run runtime directory.
    Workers are shared-nothing: each has its own LRU cache, its own
    domain pool, its own hardening counters. One persistent pipelined
    connection links the router to each worker.

    Like the daemon, the router is a request handler over {!Conn}: one
    [select] per sweep covers the public listeners, every client and
    every worker link, and nothing else waits. A client with unwritten
    responses is not read again until they drain. A worker link is
    read on every sweep, and an entry counts as sent once it is
    queued on the link, so the router and a worker never deadlock
    writing to each other.

    {2 Routing}

    Every solver request is routed by {!Shard_map.lookup} on its
    {!Protocol.fingerprint} — the same FNV-1a key the worker's cache
    uses — so a repeated request always lands on the one warm cache
    that has seen it before. [health] and [stats] fan out to every
    live worker and aggregate into a fleet-wide response that keeps
    each per-shard report under a [shard] array and adds a [router]
    section (routed/failovers/respawns/replayed counters).

    {2 Correlation and byte identity}

    The router rewrites each forwarded request's [id] to a private
    ordinal (prepended as the first member; the daemon's decoder keeps
    duplicate keys and {!Json.member} returns the first) and restores
    the client's original [id] on the way back, splicing bytes rather
    than re-encoding, so the relayed [output] bytes are exactly what
    the worker produced — which the worker in turn guarantees equal to
    the one-shot CLI at any domain count.

    {2 Failover}

    A worker is declared dead when its process exits, its connection
    breaks, bytes queued for it wait more than 30 s, or a periodic
    health probe goes unanswered. Failover then: drains any responses the worker already
    committed, SIGKILLs the process, respawns it (bounded retries),
    and replays every request still pending on that shard under its
    original ordinal. A request is answered exactly once: replay only
    covers entries with no committed response, and re-execution on the
    fresh worker reproduces bit-identical bytes, so a worker kill
    never yields a lost, duplicated or divergent response. If respawn
    fails repeatedly the shard is marked down, its pending requests
    are answered with a structured [shard_unavailable] error, and
    revival keeps being attempted in the background. *)

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
      (** Reject client lines longer than this (workers enforce their
          own copy of the same bound). *)
  worker_exe : string;  (** Binary to exec for each worker. *)
  worker_args : string list;
      (** Extra [serve] flags forwarded to every worker (cache size,
          deadlines, verification...). The router adds [serve],
          [--socket PATH] itself. *)
  handle_signals : bool;
      (** Install SIGINT/SIGTERM drain handlers ([true] from the CLI;
          in-process harnesses use {!stop} instead). *)
}

val default_options : options
(** No public listeners, 2 shards, 10 s spawn timeout, 1 MiB request
    limit, ["rexspeed"] worker binary, no extra args, signals
    handled. *)

val stop : unit -> unit
(** Request a graceful drain: answer everything in flight, SIGTERM the
    workers, clean up sockets. Safe from a signal handler or another
    domain. *)

val run : ?on_ready:(unit -> unit) -> options -> (unit, string) result
(** Spawn the fleet and route until drained. [on_ready] fires once the
    public listeners are bound and every worker accepted its probe.
    [Error message] reports invalid options, an unbindable listener,
    or a worker that could not be spawned at startup. *)
