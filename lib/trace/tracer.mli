(** Session lifecycle and emission API of the tracing subsystem.

    A session is process-global: [start] arms it, every emission point
    in the runtime then records into a lock-free per-domain buffer,
    and [finish] disarms it and returns the collected events for
    export. When no session is active every emission call is a single
    atomic load and a branch, so instrumentation can stay compiled in
    unconditionally. The paper-phase emitters stay that cheap inside a
    session too, for as long as no sampled task is running.

    Determinism contract: span identities ([epoch], [id], category,
    label) derive only from task indices and request ordinals — never
    from the clock or domain identity — so two identical runs produce
    traces that differ only in the timestamp columns. Timestamps come
    exclusively from {!Clock.now_s} (lint rule RX010). *)

type dump = {
  buffers : Store.event array list;  (** one snapshot per domain buffer *)
  counters : (Span.counter * int) list;  (** every counter, index order *)
  sample_every : int;  (** the session's sampling stride *)
}

val enabled : unit -> bool
(** [true] while a session is active. *)

val start : ?sample_every:int -> unit -> unit
(** Arm a session. Paper-phase spans ({!phase_begin}/{!phase_end})
    are only recorded for tasks whose index is a multiple of
    [sample_every] (default 64; task 0 is always sampled), which
    bounds tracing overhead on Monte-Carlo hot paths.
    @raise Invalid_argument if a session is already active or
    [sample_every < 1]. *)

val finish : unit -> dump option
(** Disarm the session and return its events, or [None] if no session
    is active. Call it only after parallel work has settled: events
    emitted concurrently with [finish] may be dropped. *)

val new_region : unit -> unit
(** Called by the pool at the start of every region it opens outside
    a parallel region. A span's epoch is the ordinal of the top-level
    region it belongs to; top-level regions run one after another, so
    the ordinal is deterministic and makes (epoch, task index) a unique
    span key even when several regions reuse the same task indices.
    While the calling domain runs a task ({!with_task}), this is a
    no-op: a region opened inside a task (a sweep cell's solver) runs
    sequentially within it and keeps its epoch, at one domain as at
    many, where such a region never reaches this call. *)

val with_task : index:int -> (unit -> 'a) -> 'a
(** Record a {!Span.Pool_task} span around one task execution and make
    [index] the ambient span id for nested emission. The span is
    emitted only for sampled tasks ([index mod sample_every = 0]);
    an unsampled task pays one lookup of its domain's ambient record
    and a few writes to it, allocates nothing and emits nothing, which
    bounds tracing overhead on hot paths with many tasks.
    Inside an enclosing task (nested pool regions degrade to
    sequential) it is transparent: the enclosing task's ambient id
    stays in effect. *)

val with_span : id:int -> ?label:string -> Span.category -> (unit -> 'a) -> 'a
(** Record a span of [category] around a computation. [label] defaults
    to the category name. *)

val phase_begin : Span.category -> unit
(** Open a paper-phase span attributed to the ambient task. A no-op
    without an active session, outside a task, or in an unsampled
    task; while no sampled task runs on any domain, it costs one
    atomic load. Must be balanced by {!phase_end} of the same
    category. *)

val phase_end : Span.category -> unit
(** Close the innermost open paper-phase span of this category. *)

val complete : id:int -> ?label:string -> Span.category -> since:float -> unit
(** Record an already-elapsed span from [since], in seconds since the
    Unix epoch, to now: a daemon request from its admission to its
    last byte written. *)

val count : ?n:int -> Span.counter -> unit
(** Bump a counter by [n] (default 1). Events that an owner also
    reports go through {!Counters.bump} instead. *)
