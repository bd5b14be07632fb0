(* Client for the serve smoke tests, in four modes.

   One-shot: send one request line to a daemon on a Unix-domain socket
   (or 127.0.0.1 TCP via a "tcp:PORT" target), read one response line,
   and print either the raw response or a single member extracted by
   dotted path — string members print raw, so a served "output" can be
   byte-compared (cmp) against one-shot CLI stdout. Numeric path
   components index into arrays, so the shard tests can pull e.g.
   result.shard.0.pid out of a fleet-wide health response.

   Pipelined (--pipeline N): send N copies of one request line on one
   connection, reading answers while sending, and demand N answers,
   each with status "ok" and, given EXPECTED, an "output" equal to
   that file's bytes, all within --within seconds (default 60). Prints
   the answer count. With --no-read it never reads: it sends until the
   lines run out or the socket stays full for half a second, prints
   the number of bytes sent, and holds the connection until killed.

   Ids (--ids N): send N copies of a request object, the i-th with
   "id":i spliced in as its first member, reading answers while
   sending; shut the write side once every line is out (and, given
   --sent FILE, create FILE then), and read to EOF. Each id must be
   answered exactly once, with status "ok" (with --shed, "ok" or a
   "shed" error), all within --within seconds. Prints three counts: ok
   answers, shed answers, and answers that came after an answer to a
   later id (out of request order).

   Idle (--idle N): open N connections and send nothing on them,
   demand a health answer on the first, close them all, then demand a
   health answer on a fresh connection, each within --within seconds.
   A server may close the connections past its cap at once. Prints N.

   Trickle (--trickle BYTES PIECE): send one health request, padded
   with spaces to BYTES bytes with its newline, PIECE bytes per write
   and 50 us apart, on a socket whose send buffer is as small as the
   kernel allows, so the server reads the line a few pieces at a time;
   demand an ok answer, all within --within seconds. Prints BYTES. *)

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("serve_client: " ^ s);
      exit 2)
    fmt

let write_all fd s =
  let bytes = Bytes.of_string s in
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd bytes !off (len - !off)
  done

let read_line_fd fd =
  let buffer = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec loop () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> die "connection closed before a full response line"
    | n -> (
        match Bytes.index_opt (Bytes.sub chunk 0 n) '\n' with
        | Some i -> Buffer.add_subbytes buffer chunk 0 i
        | None ->
            Buffer.add_subbytes buffer chunk 0 n;
            loop ())
  in
  loop ();
  Buffer.contents buffer

let connect target =
  let domain, addr =
    match String.split_on_char ':' target with
    | [ "tcp"; port ] -> (
        match int_of_string_opt port with
        | Some p when p >= 1 && p <= 65535 ->
            (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, p))
        | Some _ | None -> die "bad tcp port in target %s" target)
    | _ -> (Unix.PF_UNIX, Unix.ADDR_UNIX target)
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with Unix.Unix_error (err, _, _) ->
     die "cannot connect to %s: %s" target (Unix.error_message err));
  fd

let one_shot target request field =
  let fd = connect target in
  write_all fd (request ^ "\n");
  let response = read_line_fd fd in
  Unix.close fd;
  match field with
  | None -> print_endline response
  | Some path -> (
      match Server.Json.decode response with
      | Error e -> die "bad response JSON: %s" (Server.Json.error_to_string e)
      | Ok json -> (
          let step json key =
            match (int_of_string_opt key, json) with
            | Some i, Server.Json.List items -> List.nth_opt items i
            | _ -> Server.Json.member key json
          in
          let v =
            List.fold_left
              (fun acc key -> Option.bind acc (fun json -> step json key))
              (Some json)
              (String.split_on_char '.' path)
          in
          match v with
          | None ->
              prerr_endline
                ("serve_client: response has no member " ^ path ^ ": "
               ^ response);
              exit 3
          | Some (Server.Json.String s) -> print_string s
          | Some j -> print_string (Server.Json.encode j)))

let check_answer ~expected n line =
  let member key json =
    Option.bind (Server.Json.member key json) Server.Json.to_string_opt
  in
  match Server.Json.decode line with
  | Error e ->
      die "answer %d is not JSON: %s" n (Server.Json.error_to_string e)
  | Ok json -> (
      if member "status" json <> Some "ok" then
        die "answer %d is not ok: %s" n line;
      match expected with
      | Some bytes when member "output" json <> Some bytes ->
          die "answer %d: output differs from the one-shot CLI" n
      | Some _ | None -> ())

(* Write what the non-blocking [fd] takes of [payload] past [!sent]. *)
let write_some fd payload sent =
  match
    Unix.write_substring fd payload !sent (String.length payload - !sent)
  with
  | n -> sent := !sent + n
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

(* Write [payload] on the non-blocking [fd] while handing each answer
   line read back to [on_line], until [finished ()] holds or the peer
   closes. [on_sent] runs once the last byte is out. Dies past [within]
   seconds. *)
let exchange fd ~within ?(on_sent = ignore) payload ~on_line ~finished =
  let deadline = Server.Metrics.now_s () +. within in
  let sent = ref 0 and eof = ref false in
  let send () =
    write_some fd payload sent;
    if !sent = String.length payload then on_sent ()
  in
  let inbox = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let receive () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> eof := true
    | n ->
        Buffer.add_subbytes inbox chunk 0 n;
        let data = Buffer.contents inbox in
        let rec split start =
          match String.index_from_opt data start '\n' with
          | Some i ->
              on_line (String.sub data start (i - start));
              split (i + 1)
          | None ->
              Buffer.clear inbox;
              Buffer.add_substring inbox data start
                (String.length data - start)
        in
        split 0
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  while not (finished () || !eof) do
    let left = deadline -. Server.Metrics.now_s () in
    if left <= 0. then die "no end to the exchange within %g s" within;
    let writes = if !sent < String.length payload then [ fd ] else [] in
    match Unix.select [ fd ] writes [] left with
    | readable, writable, _ ->
        if writable <> [] then send ();
        if readable <> [] then receive ()
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

let pipeline ~count ~read ~within target request expected =
  let fd = connect target in
  Unix.set_nonblock fd;
  let payload = String.concat "" (List.init count (fun _ -> request ^ "\n")) in
  if not read then begin
    let sent = ref 0 in
    let rec fill () =
      write_some fd payload sent;
      if !sent < String.length payload then
        match Unix.select [] [ fd ] [] 0.5 with
        | [], _, _ -> ()
        | _ :: _, _, _ -> fill ()
    in
    fill ();
    Printf.printf "%d\n%!" !sent;
    Unix.sleep 3600
  end
  else begin
    let answers = ref 0 in
    exchange fd ~within payload
      ~on_line:(fun line ->
        incr answers;
        check_answer ~expected !answers line)
      ~finished:(fun () -> !answers >= count);
    if !answers < count then
      die "connection closed after %d of %d answers" !answers count;
    Unix.close fd;
    Printf.printf "%d\n" !answers
  end

(* Ids mode: the i-th copy of [request] carries "id":i as its first
   member; each id must come back exactly once, before EOF. *)
let ids ~count ~shed ~sent ~within target request =
  if String.length request < 2 || request.[0] <> '{' then
    die "--ids needs a JSON object request";
  let rest = String.sub request 1 (String.length request - 1) in
  let payload =
    String.concat ""
      (List.init count (fun i -> Printf.sprintf "{\"id\":%d,%s\n" i rest))
  in
  let fd = connect target in
  Unix.set_nonblock fd;
  let seen = Array.make count false in
  let ok = ref 0 and sheds = ref 0 and late = ref 0 and highest = ref (-1) in
  let on_line line =
    let json =
      match Server.Json.decode line with
      | Ok json -> json
      | Error e -> die "answer is not JSON: %s" (Server.Json.error_to_string e)
    in
    let str path =
      Option.bind
        (List.fold_left
           (fun acc key -> Option.bind acc (Server.Json.member key))
           (Some json) path)
        Server.Json.to_string_opt
    in
    let id =
      match
        Option.bind (Server.Json.member "id" json) Server.Json.to_int_opt
      with
      | Some id when id >= 0 && id < count -> id
      | Some _ | None -> die "answer with an unknown id: %s" line
    in
    if seen.(id) then die "id %d answered twice" id;
    seen.(id) <- true;
    if id < !highest then incr late else highest := id;
    if str [ "status" ] = Some "ok" then incr ok
    else if shed && str [ "error"; "code" ] = Some "shed" then incr sheds
    else
      die "answer %d is not %s: %s" id
        (if shed then "ok or shed" else "ok")
        line
  in
  let on_sent () =
    Unix.shutdown fd Unix.SHUTDOWN_SEND;
    Option.iter (fun path -> close_out (open_out path)) sent
  in
  exchange fd ~within ~on_sent payload ~on_line ~finished:(fun () -> false);
  Unix.close fd;
  if !ok + !sheds < count then
    die "EOF after %d of %d answers" (!ok + !sheds) count;
  Printf.printf "%d %d %d\n" !ok !sheds !late

(* Idle mode: a health answer on the first of [count] idle connections,
   and on a fresh one once they are all closed. *)
let idle ~count ~within target =
  let health fd =
    Unix.set_nonblock fd;
    let answered = ref false in
    exchange fd ~within "{\"route\":\"health\"}\n"
      ~on_line:(fun line ->
        check_answer ~expected:None 1 line;
        answered := true)
      ~finished:(fun () -> !answered);
    if not !answered then die "connection closed before a health answer"
  in
  let conns = List.init count (fun _ -> connect target) in
  health (List.hd conns);
  List.iter Unix.close conns;
  let fresh = connect target in
  health fresh;
  Unix.close fresh;
  Printf.printf "%d\n" count

(* Trickle mode: one long health line, written a piece at a time. *)
let trickle ~bytes ~piece ~within target =
  let head = {|{"route":"health"|} in
  let shortest = String.length head + 2 in
  if bytes < shortest then die "--trickle needs at least %d bytes" shortest;
  let line = head ^ String.make (bytes - shortest) ' ' ^ "}\n" in
  let fd = connect target in
  (* The kernel raises a send buffer this small to its minimum. *)
  Unix.setsockopt_int fd Unix.SO_SNDBUF piece;
  Unix.set_nonblock fd;
  let deadline = Server.Metrics.now_s () +. within in
  let sent = ref 0 in
  while !sent < bytes do
    let left = deadline -. Server.Metrics.now_s () in
    if left <= 0. then die "trickle not written within %g s" within;
    match
      Unix.write_substring fd line !sent (Int.min piece (bytes - !sent))
    with
    | n ->
        sent := !sent + n;
        Unix.sleepf 50e-6
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> (
        try ignore (Unix.select [] [ fd ] [] left)
        with Unix.Unix_error (EINTR, _, _) -> ())
  done;
  let answered = ref false in
  exchange fd
    ~within:(Float.max 0. (deadline -. Server.Metrics.now_s ()))
    ""
    ~on_line:(fun line ->
      check_answer ~expected:None 1 line;
      answered := true)
    ~finished:(fun () -> !answered);
  if not !answered then die "connection closed before the trickle's answer";
  Unix.close fd;
  Printf.printf "%d\n" bytes

let () =
  let count = ref None and id_count = ref None and idle_count = ref None in
  let trickled = ref None in
  let read = ref true and shed = ref false and sent = ref None in
  let within = ref 60. in
  let positive flag n =
    match int_of_string_opt n with
    | Some n when n >= 1 -> Some n
    | Some _ | None -> die "bad %s count %s" flag n
  in
  let rec parse = function
    | "--pipeline" :: n :: rest ->
        count := positive "--pipeline" n;
        parse rest
    | "--ids" :: n :: rest ->
        id_count := positive "--ids" n;
        parse rest
    | "--no-read" :: rest ->
        read := false;
        parse rest
    | "--idle" :: n :: rest ->
        idle_count := positive "--idle" n;
        parse rest
    | "--trickle" :: n :: piece :: rest ->
        trickled :=
          Option.bind (positive "--trickle" n) (fun n ->
              Option.map
                (fun piece -> (n, piece))
                (positive "--trickle piece" piece));
        parse rest
    | "--shed" :: rest ->
        shed := true;
        parse rest
    | "--sent" :: path :: rest ->
        sent := Some path;
        parse rest
    | "--within" :: s :: rest -> (
        match float_of_string_opt s with
        | Some s when s > 0. ->
            within := s;
            parse rest
        | Some _ | None -> die "bad --within seconds %s" s)
    | positional -> positional
  in
  let positional = parse (List.tl (Array.to_list Sys.argv)) in
  let read = !read and within = !within in
  match (!count, !id_count, !idle_count, !trickled, positional) with
  | None, None, None, None, [ target; request ] -> one_shot target request None
  | None, None, None, None, [ target; request; field ] ->
      one_shot target request (Some field)
  | Some count, None, None, None, [ target; request ] ->
      pipeline ~count ~read ~within target request None
  | Some count, None, None, None, [ target; request; expected ] ->
      pipeline ~count ~read ~within target request
        (Some (In_channel.with_open_bin expected In_channel.input_all))
  | None, Some count, None, None, [ target; request ] ->
      ids ~count ~shed:!shed ~sent:!sent ~within target request
  | None, None, Some count, None, [ target ] -> idle ~count ~within target
  | None, None, None, Some (bytes, piece), [ target ] ->
      trickle ~bytes ~piece ~within target
  | _ ->
      die
        "usage: serve_client SOCKET|tcp:PORT REQUEST [FIELD.PATH]\n\
        \       serve_client --pipeline N [--no-read] [--within S] \
         SOCKET|tcp:PORT REQUEST [EXPECTED]\n\
        \       serve_client --ids N [--shed] [--sent FILE] [--within S] \
         SOCKET|tcp:PORT REQUEST\n\
        \       serve_client --idle N [--within S] SOCKET|tcp:PORT\n\
        \       serve_client --trickle BYTES PIECE [--within S] \
         SOCKET|tcp:PORT"
