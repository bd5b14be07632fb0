(** Non-blocking connections under the daemon and the shard router.

    Both serve newline-delimited JSON from a single dispatcher, so no
    call here may wait on one peer. Every fd is non-blocking. {!send}
    writes what the kernel takes at once and queues only the rest;
    {!poll} is the one [select] of a dispatcher sweep, over the
    listeners, every connection that may be read and every connection
    with unwritten bytes.

    {2 The front}

    A server runs inside {!serve}, which binds its listeners and hands
    it a {!front}: the listeners and the clients they accepted. The
    front decides a client's whole life, so the daemon and the router
    keep only how a line is answered:
    - {!poll} accepts new clients into the front;
    - every line {!each_line} hands out of a client is owed an answer,
      and each {!answer} settles one;
    - a client closes once it is dead, or at EOF with every line read
      handed out, answered and written;
    - {!drain} ends the run's traffic, and {!serve} closes the
      listeners and the clients, unlinks the socket path and restores
      SIGPIPE on every exit, a return or an exception.

    Two rules keep one slow peer from holding up the others:
    - a client with unwritten bytes is not read again until they
      drain, so a client that stops reading stops being served;
    - a connection is dropped when its oldest unwritten bytes are
      older than the front's give-up time, or when a partial line has
      waited that long with no activity.

    A {!connect}ed link (router to worker) is read whenever bytes
    arrive, whatever it has queued, so two dispatchers writing to each
    other cannot deadlock.

    {2 The connection cap}

    [select] takes no fd at or above FD_SETSIZE (1024). A poll selects
    at most 1,000 connections, links included, and closes at once a
    client accepted beyond that. Fds are numbered from the lowest free
    one, so every selected fd stays below 1024, and a soft fd limit of
    1024 is not reached by accepting. *)

val check_endpoints :
  port:int option -> socket_path:string option -> (unit, string) result
(** [Error] naming the flag when neither endpoint is given or [port]
    is outside 1..65535. The one endpoint check: {!serve} and both
    servers' option validators call it. *)

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

val answer : ?on_done:(bool -> unit) -> t -> string -> unit
(** {!send} one client one answer: it is owed one answer fewer. *)

type line = Line of string | Too_large

val lines : ?max_bytes:int -> t -> line list
(** Take the complete lines read so far, in order, skipping blank
    ones (those [String.trim] empties). A line longer than [max_bytes]
    (default unlimited) is [Too_large] and the connection reads on. An
    unterminated tail longer than [max_bytes] is also [Too_large], but
    leaves no line boundary to resynchronize on: it is discarded and
    the connection is read no more, so it closes once answered. On a
    client each line, [Too_large] included, is owed an answer.

    Each byte is searched for a newline once, eight bytes at a time: a
    partial tail is never searched again, however many reads it takes
    to arrive, and a line is copied once, into the string handed out.
    So framing a line costs time linear in its length, whatever the
    pieces it arrives in. *)

val read : t -> unit
(** Read whatever the socket holds now, without waiting: {!poll} does
    this for readable connections; the router calls it to salvage a
    failing worker's last responses. It reads until a read returns
    less than its 64 KiB chunk, which has drained the socket, so it
    never issues a read that can only fail with [EAGAIN]. An EOF
    behind the bytes of a short read is noted by the next call, once
    [select] reports the fd again. The bytes read are appended once to
    the connection's inbox, which doubles when full and holds only
    what {!lines} has not framed yet. *)

val close : t -> unit
(** Close the fd; unwritten bytes are discarded and their [on_done]
    fires [false]. Lines already read stay available to {!lines}.
    Idempotent. *)

val dead : t -> bool
(** Closed, broken, or dropped for the give-up time. *)

val eof : t -> bool
(** No more input: the peer closed its end, an overlong tail was
    discarded, or the connection is dead. *)

(** {2 The front} *)

type front

val serve :
  port:int option -> socket_path:string option -> give_up_s:float ->
  (front -> ('a, string) result) -> ('a, string) result
(** Bind TCP [127.0.0.1:port] and/or the Unix socket [socket_path],
    ignore SIGPIPE and run [f] on the front, whose connections are
    dropped past [give_up_s] ([infinity] never gives up). On every exit
    of [f], a return or an exception, the listeners and the clients
    close, the socket path is unlinked and SIGPIPE is restored, once
    no other server in the process still runs. A
    leftover socket file is removed before binding only after a connect
    probe proves no live process owns it. [Error] without running [f]
    if {!check_endpoints} fails, a bind fails (e.g. [EADDRINUSE]), or
    [socket_path] belongs to a live process. *)

val endpoints : front -> string list
(** ["tcp:127.0.0.1:PORT"] and/or ["unix:PATH"], for log lines. *)

val poll : front -> ?links:t list -> timeout:float -> unit -> t list
(** One sweep's I/O over the listeners, the front's clients and
    [links]: close the clients that are done, wait up to [timeout]
    seconds in [select], flush writable connections, read readable
    ones, close the clients that are now done, accept on the listeners
    up to the cap, then drop every connection past the give-up time.
    Returns the dropped connections. *)

val each_line : front -> max_bytes:int -> (t -> line -> unit) -> unit
(** [f client line] for every {!lines} [~max_bytes] of every live
    client, clients in accept order. *)

val idle : front -> bool
(** No client may still send or be owed anything. *)

val drain : front -> round:(timeout:float -> unit) -> unit
(** End the traffic: stop accepting, then run [round], a sweep that
    polls with the [timeout] it is given, until a round began and ended
    with every live client owed nothing and holding no unwritten
    bytes, or for 30 s at most, whatever a client does. At least one
    round runs. The clients stay open until {!serve} returns, so the
    owner can still answer what it owes. *)
