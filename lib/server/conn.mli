(** Non-blocking connections under the daemon and the shard router.

    Both serve newline-delimited JSON from a single dispatcher, so no
    call here may wait on one peer. Every fd is non-blocking. {!send}
    writes what the kernel takes at once and queues only the rest;
    {!poll} is the one [select] of a dispatcher sweep, over the
    listeners, every connection that may be read and every connection
    with unwritten bytes.

    Two rules keep one slow peer from holding up the others:
    - an accepted connection (a client) with unwritten bytes is not
      read again until they drain, so a client that stops reading
      stops being served;
    - a connection is dropped when its oldest unwritten bytes are
      older than the give-up time passed to {!poll}, or when a partial
      line has waited that long with no activity.

    A {!connect}ed link (router to worker) is read whenever bytes
    arrive, whatever it has queued, so two dispatchers writing to each
    other cannot deadlock. *)

(** {2 Listeners} *)

type listener

val check_endpoints :
  port:int option -> socket_path:string option -> (unit, string) result
(** [Error] naming the flag when neither endpoint is given or [port]
    is outside 1..65535. The one endpoint check: {!listen} and both
    servers' option validators call it. *)

val listen :
  port:int option -> socket_path:string option -> (listener list, string) result
(** Bind and listen on TCP [127.0.0.1:port] and/or the Unix socket
    [socket_path]. A leftover socket file is removed only after a
    connect probe proves no live process owns it. Fails if
    {!check_endpoints} does, if a bind fails (e.g. [EADDRINUSE]), or
    if [socket_path] belongs to a live process. *)

val endpoint : listener -> string
(** ["tcp:127.0.0.1:PORT"] or ["unix:PATH"], for log lines. *)

val close_listener : listener -> unit
(** Stop accepting. The socket file, if any, is left for the owner to
    unlink on exit. *)

(** {2 Connections} *)

type t

val connect : string -> (t, string) result
(** Connect to the Unix socket at a path: a link, read whenever bytes
    arrive. The error is the system's message. *)

val send : ?on_done:(bool -> unit) -> t -> string -> unit
(** Queue bytes behind anything already unwritten and write as much as
    the kernel takes now. [on_done] fires once: [true] when the last
    byte is written, [false] if the connection dies first (at once on
    a dead connection). *)

type line = Line of string | Too_large

val lines : ?max_bytes:int -> t -> line list
(** Take the complete lines read so far, in order, skipping blank
    ones. A line longer than [max_bytes] (default unlimited) is
    [Too_large] and the connection reads on. An unterminated tail
    longer than [max_bytes] is also [Too_large], but leaves no line
    boundary to resynchronize on: it is discarded and the connection
    is read no more, so it closes once answered. *)

val read : t -> unit
(** Read whatever the socket holds now, without waiting: {!poll} does
    this for readable connections; the router calls it to salvage a
    failing worker's last responses. *)

type events = {
  accepted : t list;  (** New clients, in accept order. *)
  timed_out : t list;  (** Connections dropped for the give-up time. *)
}

val poll :
  ?listeners:listener list -> t list -> give_up_s:float -> timeout:float ->
  events
(** One sweep's I/O: wait up to [timeout] seconds in [select], flush
    writable connections, read readable ones, accept on readable
    listeners, then drop every connection past [give_up_s]
    ([infinity] never gives up). *)

val close : t -> unit
(** Close the fd; unwritten bytes are discarded and their [on_done]
    fires [false]. Lines already read stay available to {!lines}.
    Idempotent. *)

val dead : t -> bool
(** Closed, broken, or dropped for the give-up time. *)

val eof : t -> bool
(** No more input: the peer closed its end, an overlong tail was
    discarded, or the connection is dead. *)

val unwritten : t -> bool
(** Bytes are still queued on a live connection. *)

val drained : t -> bool
(** At EOF with every read byte framed and every queued byte written:
    the owner may close it once it owes no more answers. *)
