(** Shard worker process lifecycle for the router.

    Each worker is one [rexspeed serve] daemon on its own Unix socket:
    shared-nothing (own LRU cache, own domain pool, own chaos/trace
    state), spawned with [Unix.create_process_env] so there is no
    multicore [fork] in the picture. The router uses this module to
    spawn the fleet at startup, poll liveness when a shard's health
    probe is due, and kill or respawn a worker during failover. *)

type worker = {
  index : int;  (** shard index in [0, shards) *)
  socket_path : string;  (** the worker's private Unix socket *)
  mutable pid : int;  (** process id, or -1 when not running *)
  mutable respawns : int;  (** times this shard was respawned *)
}

val make : index:int -> socket_path:string -> worker
(** A not-yet-running worker slot. *)

val spawn : exe:string -> args:string list -> worker -> (unit, string) result
(** Start the worker process: [exe args...] with stdio inherited and a
    rewritten environment — [REXSPEED_SHARDS] is stripped so a worker
    can never recursively become a router, and [REXSPEED_TRACE] gets a
    [.shard<i>] suffix so workers do not clobber the router's trace
    file (or each other's). Any stale socket file is unlinked first. *)

val alive : worker -> bool
(** Non-blocking liveness poll ([waitpid WNOHANG]); reaps and records
    the exit when the process is gone. *)

val wait_ready : worker -> timeout_ms:int -> (Conn.t, string) result
(** Wait until the worker accepts connections on its socket, trying to
    connect every millisecond, and return the connection that succeeded:
    the router's link to the worker. Fails early if the process exits,
    or after [timeout_ms] without a connection. *)

val kill : worker -> unit
(** SIGKILL and reap immediately: the failover path, where a worker
    that stopped answering must not linger half-dead on its socket. *)

val terminate : worker -> grace_ms:int -> unit
(** Graceful stop: SIGTERM (the daemon drains in-flight work), wait up
    to [grace_ms], then SIGKILL; always reaps and unlinks the socket. *)
