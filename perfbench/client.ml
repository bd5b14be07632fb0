(* Server processes and the closed-loop client.

   Servers are real [rexspeed serve] processes started with an explicit
   environment, never domains of this process: in OCaml 5 a minor
   collection stops every domain of a process, which would charge the
   client's allocations to the server. *)

type server = {
  label : string;
  argv : string list;
  env : string list;
  socket : string;
  pid : int;
  mutable reaped : bool;
  mutable workers : int list;  (** shard worker pids of a fleet *)
}

(* Every server this process started, so that every exit path stops
   them all. *)
let live : server list ref = ref []

let alive s =
  (not s.reaped)
  &&
  match Unix.waitpid [ Unix.WNOHANG ] s.pid with
  | 0, _ -> true
  | _ ->
      s.reaped <- true;
      false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      s.reaped <- true;
      false

let spawn ~label ~exe ~args ~env ~socket ~log =
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_APPEND; O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let argv = exe :: args in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close out; Unix.close null) @@ fun () ->
    Unix.create_process_env exe (Array.of_list argv) (Array.of_list env) null out out
  in
  let s = { label; argv; env; socket; pid; reaped = false; workers = [] } in
  live := s :: !live;
  s

(* A zombie counts as gone: an orphaned worker is reaped by init, not
   by us. *)
let pid_alive pid =
  match In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
  | exception Sys_error _ -> false
  | stat -> (
      match String.rindex_opt stat ')' with
      | Some i when i + 2 < String.length stat -> stat.[i + 2] <> 'Z'
      | _ -> false)

let wait_gone ~timeout pids =
  let deadline = Stats.now () +. timeout in
  let rec go () =
    let left = List.filter pid_alive pids in
    if left <> [] && Stats.now () < deadline then begin
      Unix.sleepf 0.002;
      go ()
    end
    else left
  in
  go ()

(* SIGTERM (the daemon and the router drain; the router also stops its
   workers), then SIGKILL whatever is left, workers included. *)
let stop s =
  if alive s then begin
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Stats.now () +. 10. in
    while alive s && Stats.now () < deadline do
      Unix.sleepf 0.002
    done;
    if alive s then begin
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
      s.reaped <- true
    end
  end;
  let orphans = wait_gone ~timeout:1. s.workers in
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) orphans;
  ignore (wait_gone ~timeout:5. orphans : int list);
  live := List.filter (fun t -> t != s) !live

let stop_all () = List.iter stop !live

(* ---- connections ----------------------------------------------------- *)

type conn = { fd : Unix.file_descr; mutable buf : Bytes.t; mutable len : int; mutable scanned : int }

let connect s =
  let deadline = Stats.now () +. 20. in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX s.socket) with
    | () -> { fd; buf = Bytes.create 65536; len = 0; scanned = 0 }
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED | EAGAIN), _, _) ->
        Unix.close fd;
        if not (alive s) then failwith (s.label ^ " exited during start-up");
        if Stats.now () > deadline then failwith (s.label ^ " did not accept connections");
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all c line =
  let b = Bytes.unsafe_of_string line in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write c.fd b off (n - off)) in
  go 0

(* One read; the caller knows the socket is readable or wants to block. *)
let fill c =
  if c.len = Bytes.length c.buf then begin
    let bigger = Bytes.create (2 * c.len) in
    Bytes.blit c.buf 0 bigger 0 c.len;
    c.buf <- bigger
  end;
  match Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) with
  | 0 -> failwith "server closed the connection"
  | n -> c.len <- c.len + n

let take_line c =
  let rec find i = if i >= c.len then -1 else if Bytes.unsafe_get c.buf i = '\n' then i else find (i + 1) in
  match find c.scanned with
  | -1 ->
      c.scanned <- c.len;
      None
  | i ->
      let line = Bytes.sub_string c.buf 0 i in
      let rest = c.len - i - 1 in
      Bytes.blit c.buf (i + 1) c.buf 0 rest;
      c.len <- rest;
      c.scanned <- 0;
      Some line

let rec read_line c =
  match take_line c with
  | Some line -> line
  | None ->
      fill c;
      read_line c

let call c line =
  write_all c (line ^ "\n");
  read_line c

let json_path json path =
  List.fold_left (fun acc key -> Option.bind acc (Server.Json.member key)) (Some json) path

let call_json c line =
  match Server.Json.decode (call c line) with
  | Ok json -> json
  | Error e -> failwith ("undecodable reply: " ^ Server.Json.error_to_string e)

let health c = call_json c {|{"route":"health","id":0}|}
let stats c = call_json c {|{"route":"stats","id":0}|}

let serving json =
  Option.bind (json_path json [ "status" ]) Server.Json.to_string_opt = Some "ok"
  && Option.bind (json_path json [ "result"; "status" ]) Server.Json.to_string_opt
     = Some "serving"

(* Peak resident set of a process, from /proc/<pid>/status, in MB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> Option.fold ~none:acc ~some:(fun kb -> kb /. 1024.) (float_of_string_opt kb)
              | [] -> acc)
          | _ -> acc)
        nan
        (String.split_on_char '\n' text)

let cmdline pid =
  match In_channel.with_open_bin (Printf.sprintf "/proc/%d/cmdline" pid) In_channel.input_all with
  | exception Sys_error _ -> []
  | s -> List.filter (fun a -> a <> "") (String.split_on_char '\000' s)

(* ---- the closed loop ------------------------------------------------- *)

type round = {
  elapsed : float;  (** first write to last response, seconds *)
  latency : float array;  (** per request, write to full response line *)
}

(* Send [lines] (newline-terminated) over [conns], one request
   outstanding per connection: a connection's next request leaves as
   soon as its previous response has been read in full. [on_response i
   line] sees request [i]'s response after the next request is sent. *)
let round ?spans conns lines ~on_response =
  let n = Array.length lines and k = Array.length conns in
  let next = ref 0 and completed = ref 0 in
  let inflight = Array.make k (-1) and sent = Array.make k 0. and written = Array.make k 0. in
  let latency = Array.make n 0. in
  let send c =
    if !next < n then begin
      let i = !next in
      incr next;
      inflight.(c) <- i;
      let t0 = Stats.now () in
      write_all conns.(c) lines.(i);
      sent.(c) <- t0;
      Option.iter
        (fun s ->
          let t1 = Stats.now () in
          written.(c) <- t1;
          Spans.add s ~name:"client.write" ~id:i ~start:t0 ~stop:t1)
        spans
    end
  in
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  let start = Stats.now () in
  for c = 0 to k - 1 do
    send c
  done;
  while !completed < n do
    let ready, _, _ = Unix.select fds [] [] 30. in
    if ready = [] then failwith "no response within 30 s";
    Array.iteri
      (fun c conn ->
        if List.mem conn.fd ready then begin
          fill conn;
          match take_line conn with
          | None -> ()
          | Some line ->
              let t = Stats.now () in
              let i = inflight.(c) in
              latency.(i) <- t -. sent.(c);
              Option.iter (fun s -> Spans.add s ~name:"client.read" ~id:i ~start:written.(c) ~stop:t) spans;
              incr completed;
              send c;
              on_response i line
        end)
      conns
  done;
  { elapsed = Stats.now () -. start; latency }
