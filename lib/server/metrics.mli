(** Observability core of the query daemon.

    Per-route request/error counters and latency statistics
    (min/mean/max and p99 over a sliding window of recent samples),
    plus process uptime. Mutated only from the dispatcher domain;
    readers (the [stats] route, the periodic log line) run there too,
    so no locking is needed. *)

type t

val now_s : unit -> float
(** Wall-clock seconds since the epoch. The daemon's only clock:
    every latency or timeout measurement goes through here so that
    wall-time reads stay confined to this observability module and
    never leak into solver results. *)

val create : unit -> t
(** Starts the uptime clock. *)

val record : t -> route:string -> ok:bool -> latency_s:float -> unit
(** Count one completed request on [route]; [ok = false] also bumps
    the route's error counter. *)

type route_stats = {
  route : string;
  requests : int;
  errors : int;
  latency_min_s : float;  (** [nan] before the first sample. *)
  latency_mean_s : float;  (** Running mean over all samples. *)
  latency_max_s : float;
  latency_p99_s : float;
      (** 99th percentile over the last {!window} samples (nearest-rank). *)
}

val window : int
(** Number of recent samples backing the percentile, [512] per route. *)

val routes : t -> route_stats list
(** One entry per route seen so far, sorted by route name. *)

val totals : t -> route_stats
(** Aggregate over every route, under the name ["total"]; the
    percentile is taken over the union of the per-route windows. *)

val uptime_s : t -> float
