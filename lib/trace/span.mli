(** Span taxonomy for the tracing subsystem.

    The first five categories are the paper's pattern phases (work at
    the first speed, verification, checkpoint, recovery, re-execution
    at the second speed); the rest are runtime phases of the engine
    itself. Counters are monotonic event tallies that have no
    duration. *)

type category =
  | Work  (** pattern work segments at speed sigma1 *)
  | Verify  (** verification after each work segment *)
  | Checkpoint  (** checkpoint at the end of a successful pattern *)
  | Recover  (** recovery after a detected error, or a journal resume *)
  | Reexec  (** re-execution of a pattern at speed sigma2 *)
  | Pool_task  (** one task slot executed by the domain pool *)
  | Pool_retry  (** a retry attempt after a task failure *)
  | Journal_flush
      (** a journal durability point: the records appended since the
          last one reaching the OS (and the disk, when durable). Points
          fall at the Young/Daly period of their measured cost, so how
          many a run makes, and after which block, depends on timing:
          the one span whose count is not a function of the inputs. *)
  | Daemon_request  (** one daemon request, admission to response *)
  | Cache_lookup  (** a result-cache probe in the daemon *)
  | Sweep_cell  (** one cell of a parameter sweep *)
  | Pool_restart
      (** one supervised recovery round after a worker-domain death *)
  | Daemon_verify
      (** sampled dual execution of a request before its response is
          committed (and, on divergence, the authoritative re-run) *)
  | Router_route
      (** admission and shard selection of one request in the
          consistent-hash router *)
  | Router_failover
      (** a dead or unresponsive shard worker being failed over:
          kill, respawn, replay of its pending requests *)
  | Shard_spawn  (** one shard worker process spawn until it accepts *)

val all_categories : category list
(** Every category, in lane order. *)

val category_name : category -> string
(** Dotted lowercase name, e.g. ["pool.task"]; used as the Chrome
    [cat] field and as the default span label. *)

val lane : category -> int
(** Stable small integer for the category, used as the Chrome [tid] so
    each category renders as its own track, and as a deterministic
    sort component. *)

type counter =
  | Cache_hits
  | Cache_misses
  | Retries
  | Chaos_injections
  | Journal_flushes
  | Sheds  (** requests refused by the daemon's bounded admission queue *)
  | Deadline_timeouts  (** requests answered with [deadline_exceeded] *)
  | Io_timeouts  (** connections dropped for stalled socket I/O *)
  | Verify_checks  (** sampled dual executions performed *)
  | Verify_divergences  (** fingerprint mismatches caught before commit *)
  | Worker_restarts  (** pool worker domains restarted by the supervisor *)
  | Chaos_io_injections  (** I/O-layer chaos faults that fired *)
  | Router_routed  (** requests routed to a shard worker *)
  | Router_failovers  (** shard failovers triggered by the router *)
  | Shard_respawns  (** shard worker processes respawned *)
  | Router_replays  (** pending requests replayed after a failover *)

val all_counters : counter list
(** Every counter, in index order. *)

val counter_name : counter -> string
(** Dotted lowercase name, e.g. ["cache.hits"]. *)

val counter_index : counter -> int
(** Dense index of the counter in [0, counter_count). *)

val counter_count : int
(** Number of counters; sizes the tracer's accumulator array. *)
