let magic = "rexspeed-journal v1"

(* ------------------------------------------------------------------ *)
(* Hex payload encoding: keeps the journal line-based text, so torn
   writes are detected by line structure + checksum, and the file can
   be inspected with standard tools. Both directions are table lookups
   in plain loops: no per-byte formatting or allocation. *)

let hex_digits = "0123456789abcdef"

(* The value of each byte as a hex digit, either case; 16 marks a
   non-digit, so or-ing the values of a run of digits exceeds 15
   exactly when one of them is invalid. *)
let hex_values =
  String.init 256 (fun c ->
      Char.chr
        (match Char.chr c with
        | '0' .. '9' -> c - Char.code '0'
        | 'a' .. 'f' -> c - Char.code 'a' + 10
        | 'A' .. 'F' -> c - Char.code 'A' + 10
        | _ -> 16))

(* Write [s] as lower-case hex into [dst] at [pos]. *)
let blit_hex s dst pos =
  for i = 0 to String.length s - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.set dst (pos + (2 * i)) (String.unsafe_get hex_digits (c lsr 4));
    Bytes.set dst (pos + (2 * i) + 1) (String.unsafe_get hex_digits (c land 15))
  done

let hex_encode s =
  let b = Bytes.create (2 * String.length s) in
  blit_hex s b 0;
  Bytes.unsafe_to_string b

(* Decode the [len] hex digits of [s] at [pos]. *)
let hex_decode_sub s ~pos ~len =
  if len mod 2 <> 0 then None
  else begin
    let out = Bytes.create (len / 2) in
    let seen = ref 0 in
    for i = 0 to (len / 2) - 1 do
      let hi = Char.code hex_values.[Char.code s.[pos + (2 * i)]] in
      let lo = Char.code hex_values.[Char.code s.[pos + (2 * i) + 1]] in
      seen := !seen lor hi lor lo;
      Bytes.unsafe_set out i (Char.unsafe_chr (((hi lsl 4) lor lo) land 0xff))
    done;
    if !seen > 15 then None else Some (Bytes.unsafe_to_string out)
  end

let hex_decode s = hex_decode_sub s ~pos:0 ~len:(String.length s)

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

(* [line] is a reusable buffer each line is laid out in before it is
   output in one write. *)
type writer = { oc : Out_channel.t; sync : bool; mutable line : Bytes.t }

(* Output the line "<head><hex(payload)> <crc>\n", the crc covering
   everything before its space. The buffer is viewed as a string only
   for the checksum's fold, which keeps no reference to it. *)
let output_line w ~head payload =
  let start = String.length head in
  let body = start + (2 * String.length payload) in
  if Bytes.length w.line < body + 18 then
    w.line <- Bytes.create (2 * (body + 18));
  let b = w.line in
  Bytes.blit_string head 0 b 0 start;
  blit_hex payload b start;
  let crc =
    Checksum.to_hex (Checksum.sub (Bytes.unsafe_to_string b) ~pos:0 ~len:body)
  in
  Bytes.set b body ' ';
  Bytes.blit_string crc 0 b (body + 1) 16;
  Bytes.set b (body + 17) '\n';
  Out_channel.output w.oc b 0 (body + 18)

(* [Out_channel.flush] survives a killed process (the data is in the
   kernel page cache) but not power loss or a kernel panic; [fsync]
   covers those too. Durability points route through here so the two
   levels of guarantee live in one place. *)
let flush w =
  Out_channel.flush w.oc;
  if w.sync then Unix.fsync (Unix.descr_of_out_channel w.oc)

let create ?(sync = true) ~path ~description () =
  match Out_channel.open_text path with
  | exception Sys_error message -> Error message
  | oc ->
      let w = { oc; sync; line = Bytes.create 128 } in
      Out_channel.output_string oc (magic ^ "\n");
      output_line w ~head:"H " description;
      (* The header must survive an immediate crash: flush (and, when
         durable, fsync) before any work runs so a resumed run can
         always verify it. *)
      flush w;
      Ok w

let reopen ?(sync = true) ~path ~valid_bytes () =
  (* Drop any torn/corrupted tail first, so new records append after
     the last verified one rather than after garbage. *)
  match
    Unix.truncate path valid_bytes;
    Out_channel.open_gen [ Open_wronly; Open_append ] 0o644 path
  with
  | exception Sys_error message -> Error message
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | oc -> Ok { oc; sync; line = Bytes.create 128 }

let append w ~index ~payload =
  output_line w ~head:("R " ^ string_of_int index ^ " ") payload

let close w = Out_channel.close w.oc

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)

type recovered = {
  payloads : string option array;
  entries : int;
  dropped : bool;
  valid_bytes : int;
}

(* Records are verified and parsed where they lie in the file's
   contents; only recovered payloads are copied out. *)

(* [s] occurs in [contents] at [pos]. *)
let occurs_at contents pos s =
  let n = String.length s in
  let rec from k = k = n || (contents.[pos + k] = s.[k] && from (k + 1)) in
  pos + n <= String.length contents && from 0

(* The end of the newline-terminated line at [pos <= length]; a
   trailing segment with no ['\n'] is a torn write and is never a
   line. *)
let line_end contents pos = String.index_from_opt contents pos '\n'

(* The line [pos, stop) is "<body> <crc>", split at its last space; it
   verifies when the crc is exactly the body's checksum in [to_hex]
   form. Returns the end of the body. *)
let verify contents ~pos ~stop =
  match String.rindex_from_opt contents (stop - 1) ' ' with
  | Some space
    when space >= pos
         && stop - space - 1 = 16
         && occurs_at contents (space + 1)
              (Checksum.to_hex (Checksum.sub contents ~pos ~len:(space - pos)))
    ->
      Some space
  | Some _ | None -> None

(* The body [pos, stop) less its two-character [tag] ("H " or "R "):
   where the rest of it starts. *)
let untag contents tag ~pos ~stop =
  if stop - pos >= 2 && occurs_at contents pos tag then Some (pos + 2) else None

(* A record body [pos, stop), "R <index> <hex(payload)>", the index
   naming one of [slots] slots. *)
let parse_record contents ~slots ~pos ~stop =
  match untag contents "R " ~pos ~stop with
  | None -> None
  | Some pos -> begin
      match String.index_from_opt contents pos ' ' with
      | Some space when space < stop -> begin
          match int_of_string_opt (String.sub contents pos (space - pos)) with
          | Some i when i >= 0 && i < slots ->
              Option.map
                (fun payload -> (i, payload))
                (hex_decode_sub contents ~pos:(space + 1)
                   ~len:(stop - space - 1))
          | Some _ | None -> None
        end
      | Some _ | None -> None
    end

let read ~path ~description ~slots =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error message -> Error message
  | contents -> begin
      let pos = String.length magic + 1 in
      if not (occurs_at contents 0 (magic ^ "\n")) then
        Error (path ^ ": not a rexspeed journal (bad magic line)")
      else
        match line_end contents pos with
        | None -> Error (path ^ ": journal header is torn")
        | Some stop -> begin
            match verify contents ~pos ~stop with
            | None -> Error (path ^ ": journal header fails its checksum")
            | Some body ->
                let found =
                  Option.bind (untag contents "H " ~pos ~stop:body)
                    (fun pos -> hex_decode_sub contents ~pos ~len:(body - pos))
                in
                (match found with
                | None -> Error (path ^ ": malformed journal header")
                | Some found when not (String.equal found description) ->
                    Error
                      (Printf.sprintf
                         "%s: journal fingerprint mismatch\n\
                         \  journal was written by: %s\n\
                         \  this run is:            %s"
                         path found description)
                | Some _ ->
                    (* Header verified: recover records until the
                       first torn or corrupted one — everything before
                       it is checksummed, everything after it is
                       untrusted. *)
                    let payloads = Array.make slots None in
                    let entries = ref 0 in
                    let rec records pos =
                      match line_end contents pos with
                      | None -> pos
                      | Some stop -> begin
                          match
                            Option.bind (verify contents ~pos ~stop)
                              (fun body ->
                                parse_record contents ~slots ~pos ~stop:body)
                          with
                          | None -> pos
                          | Some (i, payload) ->
                              if payloads.(i) = None then incr entries;
                              payloads.(i) <- Some payload;
                              records (stop + 1)
                        end
                    in
                    let valid_bytes = records (stop + 1) in
                    Ok
                      {
                        payloads;
                        entries = !entries;
                        dropped = valid_bytes < String.length contents;
                        valid_bytes;
                      })
          end
    end
