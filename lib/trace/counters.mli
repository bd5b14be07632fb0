(** Per-owner event tallies, one per {!Span.counter}.

    An owner (a daemon, a router, the pool) keeps one tally and reports
    it in its own telemetry. {!bump} also counts the event in the
    active trace session, so one call records it for both. *)

type t

val create : unit -> t
(** Every counter at zero. *)

val bump : ?n:int -> t -> Span.counter -> unit
(** Add [n] (default 1) to the owner's counter and, while a session is
    active, to the session's ({!Tracer.count}). *)

val get : t -> Span.counter -> int
(** The owner's count; the trace session does not affect it. *)
