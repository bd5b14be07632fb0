(* ------------------------------------------------------------------ *)
(* Listeners                                                           *)

type listener = { fd : Unix.file_descr; name : string; mutable closed : bool }

(* Idempotent: a drain stops accepting first, and [serve] closes every
   listener again on its way out. *)
let close_listener l =
  if not l.closed then begin
    l.closed <- true;
    try Unix.close l.fd with Unix.Unix_error _ -> ()
  end

let bound fd addr name =
  Unix.bind fd addr;
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  { fd; name; closed = false }

let tcp port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Ok
      (bound fd
         (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
         (Printf.sprintf "tcp:127.0.0.1:%d" port))
  with Unix.Unix_error (err, _, _) ->
    Unix.close fd;
    Error
      (Printf.sprintf "cannot listen on 127.0.0.1:%d: %s" port
         (Unix.error_message err))

(* A leftover socket file is only removed after a liveness probe
   proves no daemon owns it: connecting to a live listener succeeds
   (or blocks on a full backlog), connecting to an abandoned path
   fails with ECONNREFUSED. Anything other than a provably-dead
   socket is left untouched. *)
let stale_socket_check path =
  match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        Unix.set_nonblock probe;
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) -> false
        | exception Unix.Unix_error (_, _, _) ->
            (* EINPROGRESS, EAGAIN, EACCES...: assume live; never
               steal a path we cannot prove abandoned. *)
            true
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      if live then
        Error (Printf.sprintf "socket %s is owned by a live daemon" path)
      else begin
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        Ok ()
      end
  | _ -> Ok () (* not a socket: leave it alone, bind will fail loudly *)
  | exception Unix.Unix_error (ENOENT, _, _) -> Ok ()

let unix path =
  match stale_socket_check path with
  | Error _ as e -> e
  | Ok () -> (
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      try Ok (bound fd (Unix.ADDR_UNIX path) ("unix:" ^ path))
      with Unix.Unix_error (err, _, _) ->
        Unix.close fd;
        Error
          (Printf.sprintf "cannot listen on socket %s: %s" path
             (Unix.error_message err)))

let check_endpoints ~port ~socket_path =
  match (port, socket_path) with
  | None, None -> Error "serve needs a listener: pass --port and/or --socket"
  | Some p, _ when p < 1 || p > 65535 -> Error "--port must be in 1..65535"
  | _ -> Ok ()

let listen ~port ~socket_path =
  let rec open_all acc = function
    | [] -> Ok (List.rev acc)
    | opener :: rest -> (
        match opener () with
        | Ok l -> open_all (l :: acc) rest
        | Error _ as e ->
            List.iter close_listener acc;
            e)
  in
  Result.bind (check_endpoints ~port ~socket_path) (fun () ->
      open_all []
        (Option.to_list (Option.map (fun p () -> tcp p) port)
        @ Option.to_list (Option.map (fun p () -> unix p) socket_path)))

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)

(* Bytes owed to the peer: [data] from [off] on, queued at [since]. *)
type pending = {
  data : string;
  mutable off : int;
  since : float;
  on_done : (bool -> unit) option;
}

type t = {
  fd : Unix.file_descr;
  client : bool;  (* accepted: not read while output is queued *)
  mutable inbox : Bytes.t;  (* bytes read, not yet framed into lines, *)
  mutable inbox_len : int;  (* up to this offset *)
  mutable scanned : int;  (* no '\n' in the inbox below this offset *)
  out : pending Queue.t;
  mutable eof : bool;
  mutable dead : bool;
  mutable last_activity : float;  (* [Metrics.now_s] of the last I/O *)
  mutable owed : int;  (* a client's lines handed out, not yet answered *)
}

let make ~client fd =
  Unix.set_nonblock fd;
  {
    fd;
    client;
    inbox = Bytes.create 256;
    inbox_len = 0;
    scanned = 0;
    out = Queue.create ();
    eof = false;
    dead = false;
    last_activity = Metrics.now_s ();
    owed = 0;
  }

let dead c = c.dead
let eof c = c.eof
let unwritten c = (not c.dead) && not (Queue.is_empty c.out)
let notify on_done ok = Option.iter (fun f -> f ok) on_done

let close c =
  if not c.dead then begin
    c.dead <- true;
    c.eof <- true;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Queue.iter (fun p -> notify p.on_done false) c.out;
    Queue.clear c.out
  end

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Ok (make ~client:false fd)
  | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message err)

(* Write from the head of the queue until it is empty or the kernel
   buffer is full; any error other than a full buffer kills the
   connection. *)
let rec flush c =
  match Queue.peek_opt c.out with
  | None -> ()
  | Some p -> (
      match
        Unix.write_substring c.fd p.data p.off (String.length p.data - p.off)
      with
      | n ->
          p.off <- p.off + n;
          c.last_activity <- Metrics.now_s ();
          if p.off = String.length p.data then begin
            ignore (Queue.pop c.out : pending);
            notify p.on_done true
          end;
          flush c
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (EINTR, _, _) -> flush c
      | exception Unix.Unix_error (_, _, _) -> close c)

(* Bytes queued behind others wait for [poll] to find the fd writable:
   the kernel buffer was full at the last attempt. *)
let send ?on_done c data =
  if c.dead then notify on_done false
  else begin
    let idle = Queue.is_empty c.out in
    Queue.push { data; off = 0; since = Metrics.now_s (); on_done } c.out;
    if idle then flush c
  end

let answer ?on_done c data =
  c.owed <- c.owed - 1;
  send ?on_done c data

(* One read buffer per domain: the dispatcher is single-threaded, but
   an in-process harness may run a daemon and a router side by side. *)
let scratch = Domain.DLS.new_key (fun () -> Bytes.create 65536)

(* Append [n] bytes of [chunk] to the inbox, doubling it when full. *)
let append c chunk n =
  let len = c.inbox_len + n in
  if len > Bytes.length c.inbox then begin
    let grown = Bytes.create (Int.max len (2 * Bytes.length c.inbox)) in
    Bytes.blit c.inbox 0 grown 0 c.inbox_len;
    c.inbox <- grown
  end;
  Bytes.blit chunk 0 c.inbox c.inbox_len n;
  c.inbox_len <- len

(* A read shorter than the chunk has drained the socket: whatever
   arrives after it, EOF included, makes the next [select] report the
   fd again. So only a full chunk reads on, and no read is issued just
   to collect its EAGAIN. *)
let rec read_into c chunk =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> c.eof <- true
  | n ->
      append c chunk n;
      c.last_activity <- Metrics.now_s ();
      if n = Bytes.length chunk then read_into c chunk
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (EINTR, _, _) -> read_into c chunk
  | exception Unix.Unix_error (_, _, _) -> close c

let read c = if not c.eof then read_into c (Domain.DLS.get scratch)

type line = Line of string | Too_large

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let rec bytewise b i stop =
  if i < stop && Bytes.unsafe_get b i <> '\n' then bytewise b (i + 1) stop
  else i

(* The offset of the first '\n' in [b] from [i] on, or [stop] if there
   is none below [stop]. Eight bytes at a time: a word holds a '\n'
   exactly when its xor with 0x0a in every byte has a zero byte, and a
   word [x] has one exactly when (x - 0x01..01) land (lnot x) land
   0x80..80 is not zero. The word that has one, and the last bytes
   short of a word, are searched byte by byte. *)
let rec newline b i stop =
  if i + 8 > stop then bytewise b i stop
  else
    let x = Int64.logxor (get64 b i) 0x0a0a0a0a0a0a0a0aL in
    if
      Int64.logand
        (Int64.logand (Int64.sub x 0x0101010101010101L) (Int64.lognot x))
        0x8080808080808080L
      = 0L
    then newline b (i + 8) stop
    else bytewise b i stop

(* [String.trim]'s whitespace, so a line is blank exactly when it trims
   to "". *)
let rec blank b i stop =
  i >= stop
  ||
  match Bytes.unsafe_get b i with
  | ' ' | '\012' | '\n' | '\r' | '\t' -> blank b (i + 1) stop
  | _ -> false

(* Only the bytes past [scanned] are searched, so a partial line is
   never scanned twice, and a line is copied out once. The unframed
   tail then moves to the front of the inbox. *)
let lines ?(max_bytes = max_int) c =
  if c.inbox_len = 0 then []
  else begin
    let b = c.inbox and len = c.inbox_len in
    let rec split start from acc =
      let i = newline b from len in
      if i = len then (start, acc)
      else
        let acc =
          if blank b start i then acc
          else if i - start > max_bytes then Too_large :: acc
          else Line (Bytes.sub_string b start (i - start)) :: acc
        in
        split (i + 1) (i + 1) acc
    in
    let start, acc = split 0 c.scanned [] in
    let tail = len - start in
    let acc =
      if tail > max_bytes then begin
        c.eof <- true;
        c.inbox_len <- 0;
        c.scanned <- 0;
        Too_large :: acc
      end
      else begin
        if start > 0 then Bytes.blit b start b 0 tail;
        c.inbox_len <- tail;
        c.scanned <- tail;
        acc
      end
    in
    if c.client then c.owed <- c.owed + List.length acc;
    List.rev acc
  end

(* ------------------------------------------------------------------ *)
(* The front                                                           *)

type front = {
  listeners : listener list;
  give_up_s : float;
  mutable clients : t list;  (* accepted, in accept order *)
}

(* [select] takes no fd at or above FD_SETSIZE (1024), and fds are
   numbered from the lowest free one: with at most this many
   connections selected, besides the listeners and the process's few
   other files, every selected fd stays below it. *)
let max_connections = 1000

(* SIGPIPE's disposition is process-wide, and several servers may run in
   one process, each on its own domain: it is ignored from the first
   server's start to the last one's exit, and only then restored. *)
let sigpipe_lock = Mutex.create ()
let servers = ref 0
let sigpipe_before = ref Sys.Signal_default

let hold_sigpipe () =
  Mutex.protect sigpipe_lock (fun () ->
      if !servers = 0 then
        sigpipe_before := Sys.signal Sys.sigpipe Sys.Signal_ignore;
      incr servers)

let release_sigpipe () =
  Mutex.protect sigpipe_lock (fun () ->
      decr servers;
      if !servers = 0 then Sys.set_signal Sys.sigpipe !sigpipe_before)

let serve ~port ~socket_path ~give_up_s f =
  Result.bind (listen ~port ~socket_path) @@ fun listeners ->
  let front = { listeners; give_up_s; clients = [] } in
  hold_sigpipe ();
  Fun.protect
    ~finally:(fun () ->
      List.iter close_listener listeners;
      List.iter close front.clients;
      front.clients <- [];
      Option.iter
        (fun path -> try Unix.unlink path with Unix.Unix_error _ -> ())
        socket_path;
      release_sigpipe ())
    (fun () -> f front)

let endpoints front = List.map (fun l -> l.name) front.listeners

(* Nothing more can come of a client: it is dead, or at EOF with every
   byte read handed out, answered and written. *)
let finished c =
  c.dead
  || (c.eof && c.owed <= 0 && c.inbox_len = 0
     && Queue.is_empty c.out)

let reap front =
  if List.exists finished front.clients then
    front.clients <-
      List.filter
        (fun c ->
          let gone = finished c in
          if gone then close c;
          not gone)
        front.clients

let idle front = List.for_all finished front.clients

let each_line front ~max_bytes f =
  List.iter
    (fun c ->
      if not c.dead then List.iter (f c) (lines ~max_bytes c))
    front.clients

(* ------------------------------------------------------------------ *)
(* The sweep                                                           *)

let readable c = (not c.eof) && not (c.client && unwritten c)

(* Accept what the backlog holds. A client beyond [room] is closed at
   once, so its fd is never selected. *)
let rec accept (l : listener) ~room acc =
  match Unix.accept ~cloexec:true l.fd with
  | fd, _ when room > 0 ->
      accept l ~room:(room - 1) (make ~client:true fd :: acc)
  | fd, _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      accept l ~room acc
  | exception Unix.Unix_error (EINTR, _, _) -> accept l ~room acc
  | exception Unix.Unix_error (_, _, _) ->
      (* EAGAIN once the backlog is empty; ECONNABORTED, EMFILE...
         leave the rest of the backlog for the next sweep. *)
      acc

let stalled ~now ~give_up_s c =
  (match Queue.peek_opt c.out with
  | Some p -> now -. p.since > give_up_s
  | None -> false)
  || (c.inbox_len > 0 && now -. c.last_activity > give_up_s)

let poll front ?(links = []) ~timeout () =
  reap front;
  let fds pred conns acc =
    List.fold_left (fun acc c -> if pred c then c.fd :: acc else acc) acc conns
  in
  let listening =
    List.filter (fun (l : listener) -> not l.closed) front.listeners
  in
  let reads =
    fds readable links
      (fds readable front.clients
         (List.map (fun (l : listener) -> l.fd) listening))
  in
  let writes = fds unwritten links (fds unwritten front.clients []) in
  let ready_r, ready_w =
    match Unix.select reads writes [] timeout with
    | r, w, _ -> (r, w)
    | exception Unix.Unix_error (EINTR, _, _) -> ([], [])
  in
  let service c =
    if unwritten c && List.mem c.fd ready_w then flush c;
    if readable c && List.mem c.fd ready_r then read c
  in
  List.iter service links;
  List.iter service front.clients;
  reap front;
  let accepted =
    List.fold_left
      (fun acc (l : listener) ->
        if List.mem l.fd ready_r then
          accept l
            ~room:
              (max_connections - List.length links
              - List.length front.clients - List.length acc)
            acc
        else acc)
      [] listening
  in
  if accepted <> [] then front.clients <- front.clients @ List.rev accepted;
  let now = Metrics.now_s () and give_up_s = front.give_up_s in
  let stale acc c =
    if (not c.dead) && stalled ~now ~give_up_s c then c :: acc else acc
  in
  let timed_out =
    List.fold_left stale (List.fold_left stale [] links) front.clients
  in
  List.iter close timed_out;
  timed_out

(* Every live client is owed nothing and holds no unwritten bytes. A
   round that begins settled reads every client to what its socket
   holds, since only unwritten bytes stop a client being read; if it
   also ends settled, every request received is answered and out. *)
let settled front =
  List.for_all
    (fun c -> c.dead || (c.owed <= 0 && Queue.is_empty c.out))
    front.clients

(* The longest a drain runs, whatever a client does. *)
let drain_give_up_s = 30.

let drain front ~round =
  List.iter close_listener front.listeners;
  let give_up_at = Metrics.now_s () +. drain_give_up_s in
  let rec loop () =
    let began = settled front in
    round ~timeout:(if began then 0. else 0.2);
    if not (began && settled front) && Metrics.now_s () < give_up_at then
      loop ()
  in
  loop ()
