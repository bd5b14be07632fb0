(* ------------------------------------------------------------------ *)
(* Listeners                                                           *)

type listener = { fd : Unix.file_descr; name : string }

let endpoint l = l.name
let close_listener l = try Unix.close l.fd with Unix.Unix_error _ -> ()

let bound fd addr name =
  Unix.bind fd addr;
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  { fd; name }

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
  inbox : Buffer.t;  (* bytes read, not yet framed into lines *)
  out : pending Queue.t;
  mutable eof : bool;
  mutable dead : bool;
  mutable last_activity : float;  (* [Metrics.now_s] of the last I/O *)
}

let make ~client fd =
  Unix.set_nonblock fd;
  {
    fd;
    client;
    inbox = Buffer.create 256;
    out = Queue.create ();
    eof = false;
    dead = false;
    last_activity = Metrics.now_s ();
  }

let dead c = c.dead
let eof c = c.eof
let unwritten c = (not c.dead) && not (Queue.is_empty c.out)
let drained c = c.eof && Buffer.length c.inbox = 0 && Queue.is_empty c.out
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

(* One read buffer per domain: the dispatcher is single-threaded, but
   an in-process harness may run a daemon and a router side by side. *)
let scratch = Domain.DLS.new_key (fun () -> Bytes.create 65536)

let read c =
  let chunk = Domain.DLS.get scratch in
  let rec loop () =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> c.eof <- true
    | n ->
        Buffer.add_subbytes c.inbox chunk 0 n;
        c.last_activity <- Metrics.now_s ();
        loop ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> loop ()
    | exception Unix.Unix_error (_, _, _) -> close c
  in
  if not c.eof then loop ()

type line = Line of string | Too_large

let lines ?(max_bytes = max_int) c =
  if Buffer.length c.inbox = 0 then []
  else begin
    let data = Buffer.contents c.inbox in
    Buffer.clear c.inbox;
    let rec split start acc =
      match String.index_from_opt data start '\n' with
      | None -> (start, acc)
      | Some i ->
          let line = String.sub data start (i - start) in
          let acc =
            if String.trim line = "" then acc
            else if String.length line > max_bytes then Too_large :: acc
            else Line line :: acc
          in
          split (i + 1) acc
    in
    let start, acc = split 0 [] in
    let tail = String.length data - start in
    if tail > max_bytes then begin
      c.eof <- true;
      List.rev (Too_large :: acc)
    end
    else begin
      Buffer.add_substring c.inbox data start tail;
      List.rev acc
    end
  end

(* ------------------------------------------------------------------ *)
(* The sweep                                                           *)

type events = { accepted : t list; timed_out : t list }

let readable c = (not c.eof) && not (c.client && unwritten c)

let rec accept (l : listener) acc =
  match Unix.accept ~cloexec:true l.fd with
  | fd, _ -> accept l (make ~client:true fd :: acc)
  | exception Unix.Unix_error (EINTR, _, _) -> accept l acc
  | exception Unix.Unix_error (_, _, _) ->
      (* EAGAIN once the backlog is empty; ECONNABORTED, EMFILE...
         leave the rest of the backlog for the next sweep. *)
      acc

let stalled ~now ~give_up_s c =
  (match Queue.peek_opt c.out with
  | Some p -> now -. p.since > give_up_s
  | None -> false)
  || (Buffer.length c.inbox > 0 && now -. c.last_activity > give_up_s)

let poll ?(listeners = []) conns ~give_up_s ~timeout =
  let reads =
    List.map (fun (l : listener) -> l.fd) listeners
    @ List.filter_map (fun c -> if readable c then Some c.fd else None) conns
  in
  let writes =
    List.filter_map (fun c -> if unwritten c then Some c.fd else None) conns
  in
  let ready_r, ready_w =
    match Unix.select reads writes [] timeout with
    | r, w, _ -> (r, w)
    | exception Unix.Unix_error (EINTR, _, _) -> ([], [])
  in
  List.iter
    (fun c ->
      if unwritten c && List.mem c.fd ready_w then flush c;
      if readable c && List.mem c.fd ready_r then read c)
    conns;
  let accepted =
    List.fold_left
      (fun acc (l : listener) ->
        if List.mem l.fd ready_r then accept l acc else acc)
      [] listeners
  in
  let now = Metrics.now_s () in
  let timed_out =
    List.filter (fun c -> (not c.dead) && stalled ~now ~give_up_s c) conns
  in
  List.iter close timed_out;
  { accepted = List.rev accepted; timed_out }
