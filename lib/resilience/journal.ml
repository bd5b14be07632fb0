let magic = "rexspeed-journal v1"

(* ------------------------------------------------------------------ *)
(* Hex payload encoding: keeps the journal line-based text, so torn
   writes are detected by line structure + checksum, and the file can
   be inspected with standard tools. Both directions are table lookups
   in plain loops that fold the line's checksum over the digits as they
   write or read them: no per-byte formatting or allocation, and one
   pass over the digits, whose cost the checksum's chain of multiplies
   sets. *)

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

external get16 : string -> int -> int = "%caml_string_get16u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

(* The two digits of every byte value, as one 16-bit word: those of
   byte [c] start at [2 * c]. Loads and stores of the word share the
   host's byte order, so the digits land in order on any host. *)
let hex_pairs =
  String.init 512 (fun i ->
      hex_digits.[(if i land 1 = 0 then i lsr 5 else (i lsr 1) land 15)])

(* [h] continued over the two characters [c1] and [c2]; the caller
   passes [Checksum.prime], bound before its loop so that it stays an
   unboxed register there. *)
let[@inline] fold2 prime h c1 c2 =
  Int64.mul
    (Int64.logxor (Int64.mul (Int64.logxor h (Int64.of_int c1)) prime) (Int64.of_int c2))
    prime

(* Write [s] as lower-case hex into [dst] at [pos], inside bounds
   checked once, and return the checksum [h] continued over the
   digits. *)
let blit_hex h s dst pos =
  if pos < 0 || Bytes.length dst - pos < 2 * String.length s then
    invalid_arg "Journal.blit_hex";
  let prime = Checksum.prime and h = ref h in
  for i = 0 to String.length s - 1 do
    let pair = get16 hex_pairs (2 * Char.code (String.unsafe_get s i)) in
    set16 dst (pos + (2 * i)) pair;
    h :=
      fold2 prime !h
        (Char.code (Bytes.unsafe_get dst (pos + (2 * i))))
        (Char.code (Bytes.unsafe_get dst (pos + (2 * i) + 1)))
  done;
  !h

let hex_encode s =
  let b = Bytes.create (2 * String.length s) in
  ignore (blit_hex 0L s b 0 : int64);
  Bytes.unsafe_to_string b

(* Decode the digits of [s] from [pos], a pair at a time while both are
   digits before [stop], into [out] from 0, inside bounds checked once.
   Returns where the decoded run ends, and the checksum [h] continued
   over it. *)
let unhex h s ~pos ~stop out =
  if pos < 0 || stop > String.length s || Bytes.length out < (stop - pos) / 2
  then invalid_arg "Journal.unhex";
  let prime = Checksum.prime and h = ref h in
  let at = ref pos and digits = ref true in
  while !digits && !at + 1 < stop do
    let i = !at in
    let c1 = Char.code (String.unsafe_get s i)
    and c2 = Char.code (String.unsafe_get s (i + 1)) in
    let hi = Char.code (String.unsafe_get hex_values c1)
    and lo = Char.code (String.unsafe_get hex_values c2) in
    if hi lor lo < 16 then begin
      Bytes.unsafe_set out ((i - pos) / 2) (Char.unsafe_chr ((hi lsl 4) lor lo));
      h := fold2 prime !h c1 c2;
      at := i + 2
    end
    else digits := false
  done;
  (!at, !h)

(* Decode the [len] hex digits of [s] at [pos]. *)
let hex_decode_sub s ~pos ~len =
  if len < 0 then invalid_arg "Journal.hex_decode_sub";
  let out = Bytes.create (len / 2) in
  let stop, _ = unhex 0L s ~pos ~stop:(pos + len) out in
  if stop = pos + len then Some (Bytes.unsafe_to_string out) else None

let hex_decode s = hex_decode_sub s ~pos:0 ~len:(String.length s)

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

(* [line] is a reusable buffer each line is laid out in before it is
   output in one write; [cost] is how long the last durability point
   took, in seconds. *)
type writer = {
  oc : Out_channel.t;
  sync : bool;
  mutable line : Bytes.t;
  mutable cost : float;
}

(* Output the line "<head><hex(payload)> <crc>\n", the crc covering
   everything before its space. *)
let output_line w ~head payload =
  let start = String.length head in
  let body = start + (2 * String.length payload) in
  if Bytes.length w.line < body + 18 then
    w.line <- Bytes.create (2 * (body + 18));
  let b = w.line in
  Bytes.blit_string head 0 b 0 start;
  let crc = Checksum.to_hex (blit_hex (Checksum.string head) payload b start) in
  Bytes.set b body ' ';
  Bytes.blit_string crc 0 b (body + 1) 16;
  Bytes.set b (body + 17) '\n';
  Out_channel.output w.oc b 0 (body + 18)

(* [Out_channel.flush] survives a killed process (the data is in the
   kernel page cache) but not power loss or a kernel panic; [fsync]
   covers those too. Durability points route through here so the two
   levels of guarantee live in one place, and so does the measurement
   of what a durability point costs. *)
let flush w =
  let start = Tracing.Clock.now_s () in
  Out_channel.flush w.oc;
  if w.sync then Unix.fsync (Unix.descr_of_out_channel w.oc);
  w.cost <- Tracing.Clock.now_s () -. start

let flush_cost w = w.cost

let create ?(sync = true) ~path ~description () =
  match Out_channel.open_text path with
  | exception Sys_error message -> Error message
  | oc ->
      let w = { oc; sync; line = Bytes.create 128; cost = 0. } in
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
  | oc -> Ok { oc; sync; line = Bytes.create 128; cost = 0. }

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

(* The record line at [pos], "R <index> <hex(payload)> <crc>\n", the
   index naming one of [slots] slots and the crc the checksum of
   everything before its space, parsed in one pass: its digits are
   decoded into [scratch] as the checksum folds over them. Returns the
   index, the payload and where the next line starts. *)
let parse_record contents ~slots ~pos scratch =
  let length = String.length contents in
  match untag contents "R " ~pos ~stop:length with
  | None -> None
  | Some start -> begin
      match String.index_from_opt contents start ' ' with
      | None -> None
      | Some space -> begin
          match int_of_string_opt (String.sub contents start (space - start)) with
          | Some i when i >= 0 && i < slots ->
              let digits = space + 1 in
              let stop, h =
                unhex
                  (Checksum.sub contents ~pos ~len:(digits - pos))
                  contents ~pos:digits ~stop:length scratch
              in
              if
                stop + 17 < length
                && contents.[stop] = ' '
                && contents.[stop + 17] = '\n'
                && occurs_at contents (stop + 1) (Checksum.to_hex h)
              then
                Some (i, Bytes.sub_string scratch 0 ((stop - digits) / 2), stop + 18)
              else None
          | Some _ | None -> None
        end
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
                    let scratch = Bytes.create (String.length contents / 2) in
                    let rec records pos =
                      match parse_record contents ~slots ~pos scratch with
                      | None -> pos
                      | Some (i, payload, next) ->
                          if payloads.(i) = None then incr entries;
                          payloads.(i) <- Some payload;
                          records next
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
