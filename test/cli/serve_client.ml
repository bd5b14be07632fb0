(* Client for the serve smoke tests, in two modes.

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
   the number of bytes sent, and holds the connection until killed. *)

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

let pipeline ~count ~read ~within target request expected =
  let fd = connect target in
  Unix.set_nonblock fd;
  let payload = String.concat "" (List.init count (fun _ -> request ^ "\n")) in
  let sent = ref 0 in
  let send () =
    match
      Unix.write_substring fd payload !sent (String.length payload - !sent)
    with
    | n -> sent := !sent + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  if not read then begin
    let rec fill () =
      send ();
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
    let deadline = Server.Metrics.now_s () +. within in
    let inbox = Buffer.create 65536 in
    let chunk = Bytes.create 65536 in
    let answers = ref 0 in
    let receive () =
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> die "connection closed after %d of %d answers" !answers count
      | n ->
          Buffer.add_subbytes inbox chunk 0 n;
          let data = Buffer.contents inbox in
          let rec split start =
            match String.index_from_opt data start '\n' with
            | Some i ->
                incr answers;
                check_answer ~expected !answers
                  (String.sub data start (i - start));
                split (i + 1)
            | None ->
                Buffer.clear inbox;
                Buffer.add_substring inbox data start
                  (String.length data - start)
          in
          split 0
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    in
    while !answers < count do
      let left = deadline -. Server.Metrics.now_s () in
      if left <= 0. then
        die "%d of %d answers within %g s" !answers count within;
      let writes = if !sent < String.length payload then [ fd ] else [] in
      match Unix.select [ fd ] writes [] left with
      | readable, writable, _ ->
          if writable <> [] then send ();
          if readable <> [] then receive ()
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    done;
    Unix.close fd;
    Printf.printf "%d\n" !answers
  end

let () =
  let rec parse ~count ~read ~within = function
    | "--pipeline" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> parse ~count:(Some n) ~read ~within rest
        | Some _ | None -> die "bad --pipeline count %s" n)
    | "--no-read" :: rest -> parse ~count ~read:false ~within rest
    | "--within" :: s :: rest -> (
        match float_of_string_opt s with
        | Some s when s > 0. -> parse ~count ~read ~within:s rest
        | Some _ | None -> die "bad --within seconds %s" s)
    | positional -> (count, read, within, positional)
  in
  match
    parse ~count:None ~read:true ~within:60.
      (List.tl (Array.to_list Sys.argv))
  with
  | None, _, _, [ target; request ] -> one_shot target request None
  | None, _, _, [ target; request; field ] ->
      one_shot target request (Some field)
  | Some count, read, within, [ target; request ] ->
      pipeline ~count ~read ~within target request None
  | Some count, read, within, [ target; request; expected ] ->
      pipeline ~count ~read ~within target request
        (Some (In_channel.with_open_bin expected In_channel.input_all))
  | _ ->
      die
        "usage: serve_client SOCKET|tcp:PORT REQUEST [FIELD.PATH]\n\
        \       serve_client --pipeline N [--no-read] [--within S] \
         SOCKET|tcp:PORT REQUEST [EXPECTED]"
