type worker = {
  index : int;
  socket_path : string;
  mutable pid : int;
  mutable respawns : int;
}

let make ~index ~socket_path = { index; socket_path; pid = -1; respawns = 0 }

(* Workers inherit the router's environment except for two variables:
   REXSPEED_SHARDS must not leak (a worker that saw it would try to
   become a router and spawn its own fleet — a fork bomb), and
   REXSPEED_TRACE must be made per-worker so the fleet does not write
   one trace file concurrently. *)
let worker_env index =
  let rewrite binding =
    match String.index_opt binding '=' with
    | None -> Some binding
    | Some i -> (
        match String.sub binding 0 i with
        | "REXSPEED_SHARDS" -> None
        | "REXSPEED_TRACE" ->
            Some (Printf.sprintf "%s.shard%d" binding index)
        | _ -> Some binding)
  in
  Array.of_seq
    (Seq.filter_map rewrite (Array.to_seq (Unix.environment ())))

let spawn ~exe ~args worker =
  (try Unix.unlink worker.socket_path with Unix.Unix_error _ -> ());
  let argv = Array.of_list (exe :: args) in
  match
    Unix.create_process_env exe argv (worker_env worker.index) Unix.stdin
      Unix.stdout Unix.stderr
  with
  | pid ->
      worker.pid <- pid;
      Ok ()
  | exception Unix.Unix_error (err, _, _) ->
      Error
        (Printf.sprintf "shard %d: cannot spawn %s: %s" worker.index exe
           (Unix.error_message err))

let reap worker = worker.pid <- -1

let alive worker =
  worker.pid > 0
  &&
  match Unix.waitpid [ Unix.WNOHANG ] worker.pid with
  | 0, _ -> true
  | _ ->
      reap worker;
      false
  | exception Unix.Unix_error (ECHILD, _, _) ->
      reap worker;
      false
  | exception Unix.Unix_error (EINTR, _, _) -> true

(* A worker binds its socket a few milliseconds after it starts, so a
   1 ms poll keeps start-up from being rounded up to the poll period. *)
let wait_ready worker ~timeout_ms =
  let deadline = Metrics.now_s () +. (float_of_int timeout_ms /. 1000.) in
  let rec loop () =
    if not (alive worker) then
      Error
        (Printf.sprintf "shard %d: worker exited during startup"
           worker.index)
    else
      match Conn.connect worker.socket_path with
      | Ok link -> Ok link
      | Error _ when Metrics.now_s () > deadline ->
          Error
            (Printf.sprintf "shard %d: worker not accepting after %d ms"
               worker.index timeout_ms)
      | Error _ ->
          Unix.sleepf 0.001;
          loop ()
  in
  loop ()

let blocking_reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (EINTR, _, _) -> (
      (* One retry is enough in practice; after SIGKILL the child is
         guaranteed to exit, so a second EINTR just leaves a zombie
         that the next waitpid sweep collects. *)
      match Unix.waitpid [] pid with
      | _ -> ()
      | exception Unix.Unix_error (_, _, _) -> ())
  | exception Unix.Unix_error (_, _, _) -> ()

let kill worker =
  if worker.pid > 0 then begin
    (try Unix.kill worker.pid Sys.sigkill with Unix.Unix_error _ -> ());
    blocking_reap worker.pid;
    reap worker
  end

let terminate worker ~grace_ms =
  if worker.pid > 0 then begin
    (try Unix.kill worker.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Metrics.now_s () +. (float_of_int grace_ms /. 1000.) in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] worker.pid with
      | 0, _ ->
          if Metrics.now_s () > deadline then begin
            (try Unix.kill worker.pid Sys.sigkill
             with Unix.Unix_error _ -> ());
            blocking_reap worker.pid
          end
          else begin
            Unix.sleepf 0.01;
            wait ()
          end
      | _ -> ()
      | exception Unix.Unix_error (EINTR, _, _) -> wait ()
      | exception Unix.Unix_error (_, _, _) -> ()
    in
    wait ();
    reap worker
  end;
  try Unix.unlink worker.socket_path with Unix.Unix_error _ -> ()
