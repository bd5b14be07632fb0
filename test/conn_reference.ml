(* Line framing as [Server.Conn] did it over a [Buffer] before it framed
   each byte once: every [lines] call copied the whole inbox out,
   searched it from its start and copied the unframed tail back, so a
   partial line was copied and scanned again on every read. It stays as
   the reference the framing must match, line for line and EOF for EOF,
   however the bytes are cut into reads. *)

type t = { inbox : Buffer.t; mutable eof : bool }

let create () = { inbox = Buffer.create 256; eof = false }

(* The bytes of one read; at EOF nothing is read any more. *)
let read c chunk = if not c.eof then Buffer.add_string c.inbox chunk

(* A read that returned 0: the peer closed its end. *)
let peer_closed c = c.eof <- true

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
            else if String.length line > max_bytes then
              Server.Conn.Too_large :: acc
            else Server.Conn.Line line :: acc
          in
          split (i + 1) acc
    in
    let start, acc = split 0 [] in
    let tail = String.length data - start in
    let acc =
      if tail > max_bytes then begin
        c.eof <- true;
        Server.Conn.Too_large :: acc
      end
      else begin
        Buffer.add_substring c.inbox data start tail;
        acc
      end
    in
    List.rev acc
  end
