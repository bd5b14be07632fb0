type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Encoder                                                             *)

(* Shortest decimal that parses back to the same float: try 15, 16
   then 17 significant digits ("%.17g" always round-trips for IEEE
   doubles). A rendering with no '.', 'e' or 'n' gets a ".0" suffix so
   Float never decodes back as Int. *)
let float_repr v =
  if not (Float.is_finite v) then
    invalid_arg "Server.Json.encode: non-finite float";
  let shortest =
    let try_digits d =
      let s = Printf.sprintf "%.*g" d v in
      if Float.equal (float_of_string s) v then Some s else None
    in
    match try_digits 15 with
    | Some s -> s
    | None -> (
        match try_digits 16 with
        | Some s -> s
        | None -> Printf.sprintf "%.17g" v)
  in
  if String.exists (function '.' | 'e' | 'E' -> true | _ -> false) shortest
  then shortest
  else shortest ^ ".0"

(* The escape of each byte, or "" for a byte copied as it is: the
   quote, the backslash and the control characters are escaped, every
   other byte (UTF-8 included) passes through. *)
let escapes =
  Array.init 256 (fun code ->
      match Char.chr code with
      | '"' -> "\\\""
      | '\\' -> "\\\\"
      | '\n' -> "\\n"
      | '\r' -> "\\r"
      | '\t' -> "\\t"
      | '\b' -> "\\b"
      | '\012' -> "\\f"
      | _ when code < 0x20 -> Printf.sprintf "\\u%04x" code
      | _ -> "")

(* Copy each run of unescaped bytes with one blit. *)
let escape_string buffer s =
  Buffer.add_char buffer '"';
  let n = String.length s in
  let rec scan run i =
    if i = n then Buffer.add_substring buffer s run (i - run)
    else
      let e = Array.unsafe_get escapes (Char.code (String.unsafe_get s i)) in
      if String.length e = 0 then scan run (i + 1)
      else begin
        Buffer.add_substring buffer s run (i - run);
        Buffer.add_string buffer e;
        scan (i + 1) (i + 1)
      end
  in
  scan 0 0;
  Buffer.add_char buffer '"'

let rec add_value buffer = function
  | Null -> Buffer.add_string buffer "null"
  | Bool b -> Buffer.add_string buffer (if b then "true" else "false")
  | Int i -> Buffer.add_string buffer (string_of_int i)
  | Float v -> Buffer.add_string buffer (float_repr v)
  | String s -> escape_string buffer s
  | List items ->
      Buffer.add_char buffer '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buffer ',';
          add_value buffer item)
        items;
      Buffer.add_char buffer ']'
  | Obj members ->
      Buffer.add_char buffer '{';
      List.iteri
        (fun i member ->
          if i > 0 then Buffer.add_char buffer ',';
          add_member buffer member)
        members;
      Buffer.add_char buffer '}'

and add_member buffer (key, item) =
  escape_string buffer key;
  Buffer.add_char buffer ':';
  add_value buffer item

let encode value =
  let buffer = Buffer.create 256 in
  add_value buffer value;
  Buffer.contents buffer

(* Sized for a rendered answer, under the minor heap's 2 KiB limit. *)
let encode_line value =
  let buffer = Buffer.create 2000 in
  add_value buffer value;
  Buffer.add_char buffer '\n';
  Buffer.contents buffer

let encode_members members =
  let buffer = Buffer.create 2000 in
  List.iter
    (fun member ->
      Buffer.add_char buffer ',';
      add_member buffer member)
    members;
  Buffer.contents buffer

(* ------------------------------------------------------------------ *)
(* Decoder                                                             *)

type error = { position : int; message : string }

let error_to_string e = Printf.sprintf "byte %d: %s" e.position e.message

exception Fail of error

let fail position message = raise (Fail { position; message })

(* The one allocation a decode makes besides its values. Every reader
   below is a top-level function of the cursor: a look at the next
   byte allocates nothing and no closure is built per call. *)
type cursor = {
  input : string;
  len : int;
  mutable pos : int;
  max_depth : int;
}

(* The byte at [i]; callers check [i < cur.len] first. *)
let byte cur i = String.unsafe_get cur.input i
let at cur c = cur.pos < cur.len && Char.equal (byte cur cur.pos) c

let rec skip_ws cur =
  if cur.pos < cur.len then
    match byte cur cur.pos with
    | ' ' | '\t' | '\n' | '\r' ->
        cur.pos <- cur.pos + 1;
        skip_ws cur
    | _ -> ()

let expect cur c =
  if cur.pos >= cur.len then
    fail cur.len (Printf.sprintf "expected '%c', found end of input" c)
  else
    let found = byte cur cur.pos in
    if Char.equal found c then cur.pos <- cur.pos + 1
    else fail cur.pos (Printf.sprintf "expected '%c', found '%c'" c found)

(* Whether the input spells [word] at [start], from the word's byte [i]
   on; callers check that the input is long enough. *)
let rec spelled cur start word i =
  i = String.length word
  || Char.equal (byte cur (start + i)) (String.unsafe_get word i)
     && spelled cur start word (i + 1)

let literal cur word value =
  let start = cur.pos in
  let stop = start + String.length word in
  if stop <= cur.len && spelled cur start word 0 then begin
    cur.pos <- stop;
    value
  end
  else fail start (Printf.sprintf "invalid literal (expected %S)" word)

(* Decode \uXXXX (with surrogate pairs) to UTF-8 bytes. *)
let hex4 cur =
  if cur.pos + 4 > cur.len then fail cur.len "truncated \\u escape";
  let v = ref 0 in
  for _ = 1 to 4 do
    let d =
      match byte cur cur.pos with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | c -> fail cur.pos (Printf.sprintf "invalid hex digit '%c'" c)
    in
    v := (!v * 16) + d;
    cur.pos <- cur.pos + 1
  done;
  !v

let add_utf8 buffer cp =
  if cp < 0x80 then Buffer.add_char buffer (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buffer (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buffer (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buffer (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buffer (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buffer (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buffer (Char.chr (0xf0 lor (cp lsr 18)));
    Buffer.add_char buffer (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
    Buffer.add_char buffer (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buffer (Char.chr (0x80 lor (cp land 0x3f)))
  end

(* One escape, the cursor just past its backslash. *)
let escape cur buffer =
  if cur.pos >= cur.len then fail cur.len "truncated escape";
  let c = byte cur cur.pos in
  cur.pos <- cur.pos + 1;
  match c with
  | '"' -> Buffer.add_char buffer '"'
  | '\\' -> Buffer.add_char buffer '\\'
  | '/' -> Buffer.add_char buffer '/'
  | 'n' -> Buffer.add_char buffer '\n'
  | 'r' -> Buffer.add_char buffer '\r'
  | 't' -> Buffer.add_char buffer '\t'
  | 'b' -> Buffer.add_char buffer '\b'
  | 'f' -> Buffer.add_char buffer '\012'
  | 'u' ->
      let escape_start = cur.pos - 2 in
      let cp = hex4 cur in
      let cp =
        if cp >= 0xd800 && cp <= 0xdbff then begin
          (* High surrogate: the low half must follow. *)
          if
            cur.pos + 2 <= cur.len
            && Char.equal (byte cur cur.pos) '\\'
            && Char.equal (byte cur (cur.pos + 1)) 'u'
          then begin
            cur.pos <- cur.pos + 2;
            let low = hex4 cur in
            if low >= 0xdc00 && low <= 0xdfff then
              0x10000 + ((cp - 0xd800) lsl 10) + (low - 0xdc00)
            else fail escape_start "unpaired high surrogate"
          end
          else fail escape_start "unpaired high surrogate"
        end
        else if cp >= 0xdc00 && cp <= 0xdfff then
          fail escape_start "unpaired low surrogate"
        else cp
      in
      add_utf8 buffer cp
  | c -> fail (cur.pos - 1) (Printf.sprintf "invalid escape '\\%c'" c)

(* The body of a string from byte [i] on, up to its closing quote. Up
   to the first backslash it is scanned in place and, with no escape
   at all, taken with one [String.sub]; from there [buffer] holds what
   precedes [run], and each run of plain bytes is copied with one
   blit. *)
let rec plain_string cur start i =
  if i >= cur.len then fail cur.len "unterminated string"
  else
    match byte cur i with
    | '"' ->
        cur.pos <- i + 1;
        String.sub cur.input start (i - start)
    | '\\' -> escaped_string cur (Buffer.create (i - start + 16)) start i
    | c when Char.code c < 0x20 ->
        fail i "unescaped control character in string"
    | _ -> plain_string cur start (i + 1)

and escaped_string cur buffer run i =
  if i >= cur.len then fail cur.len "unterminated string"
  else
    match byte cur i with
    | '"' ->
        Buffer.add_substring buffer cur.input run (i - run);
        cur.pos <- i + 1;
        Buffer.contents buffer
    | '\\' ->
        Buffer.add_substring buffer cur.input run (i - run);
        cur.pos <- i + 1;
        escape cur buffer;
        escaped_string cur buffer cur.pos cur.pos
    | c when Char.code c < 0x20 ->
        fail i "unescaped control character in string"
    | _ -> escaped_string cur buffer run (i + 1)

(* A string, the cursor on its opening quote. *)
let parse_string cur = plain_string cur (cur.pos + 1) (cur.pos + 1)

let is_digit c = c >= '0' && c <= '9'

let rec skip_digits cur =
  if cur.pos < cur.len && is_digit (byte cur cur.pos) then begin
    cur.pos <- cur.pos + 1;
    skip_digits cur
  end

(* At least one digit, then as many as follow; [fail] with [message]
   at the first non-digit otherwise. *)
let digits cur message =
  if cur.pos < cur.len && is_digit (byte cur cur.pos) then skip_digits cur
  else fail cur.pos message

(* The decimal value of the digits from [i] to [stop], at most 18 of
   them, so that it cannot overflow. *)
let rec small_int cur i stop acc =
  if i = stop then acc
  else small_int cur (i + 1) stop ((acc * 10) + Char.code (byte cur i) - 48)

(* A number whose value a double cannot hold is refused at its first
   byte: [Float] is finite by contract. *)
let finite_float cur start =
  let v = float_of_string (String.sub cur.input start (cur.pos - start)) in
  if Float.is_finite v then Float v else fail start "number out of range"

let parse_number cur =
  let start = cur.pos in
  let negative = at cur '-' in
  if negative then cur.pos <- cur.pos + 1;
  let first = cur.pos in
  digits cur "expected digit";
  let stop = cur.pos in
  let fraction = at cur '.' in
  if fraction then begin
    cur.pos <- cur.pos + 1;
    digits cur "expected digit after '.'"
  end;
  let exponent = at cur 'e' || at cur 'E' in
  if exponent then begin
    cur.pos <- cur.pos + 1;
    if at cur '+' || at cur '-' then cur.pos <- cur.pos + 1;
    digits cur "expected digit in exponent"
  end;
  if fraction || exponent then finite_float cur start
  else if stop - first <= 18 then
    let v = small_int cur first stop 0 in
    Int (if negative then -v else v)
  else
    match int_of_string_opt (String.sub cur.input start (stop - start)) with
    | Some i -> Int i
    | None -> finite_float cur start

let rec parse_value cur depth =
  if depth > cur.max_depth then fail cur.pos "nesting too deep";
  skip_ws cur;
  if cur.pos >= cur.len then
    fail cur.len "expected a value, found end of input";
  match byte cur cur.pos with
  | 'n' -> literal cur "null" Null
  | 't' -> literal cur "true" (Bool true)
  | 'f' -> literal cur "false" (Bool false)
  | '"' -> String (parse_string cur)
  | '-' | '0' .. '9' -> parse_number cur
  | '[' ->
      cur.pos <- cur.pos + 1;
      skip_ws cur;
      if at cur ']' then begin
        cur.pos <- cur.pos + 1;
        List []
      end
      else List (items cur depth [])
  | '{' ->
      cur.pos <- cur.pos + 1;
      skip_ws cur;
      if at cur '}' then begin
        cur.pos <- cur.pos + 1;
        Obj []
      end
      else Obj (members cur depth [])
  | c -> fail cur.pos (Printf.sprintf "unexpected character '%c'" c)

and items cur depth acc =
  let acc = parse_value cur (depth + 1) :: acc in
  skip_ws cur;
  if cur.pos >= cur.len then fail cur.len "unterminated list";
  match byte cur cur.pos with
  | ',' ->
      cur.pos <- cur.pos + 1;
      items cur depth acc
  | ']' ->
      cur.pos <- cur.pos + 1;
      List.rev acc
  | c ->
      fail cur.pos (Printf.sprintf "expected ',' or ']' in list, found '%c'" c)

and members cur depth acc =
  skip_ws cur;
  if cur.pos >= cur.len then
    fail cur.len "expected object key, found end of input";
  (match byte cur cur.pos with
  | '"' -> ()
  | c -> fail cur.pos (Printf.sprintf "expected object key, found '%c'" c));
  let key = parse_string cur in
  skip_ws cur;
  expect cur ':';
  let acc = (key, parse_value cur (depth + 1)) :: acc in
  skip_ws cur;
  if cur.pos >= cur.len then fail cur.len "unterminated object";
  match byte cur cur.pos with
  | ',' ->
      cur.pos <- cur.pos + 1;
      members cur depth acc
  | '}' ->
      cur.pos <- cur.pos + 1;
      List.rev acc
  | c ->
      fail cur.pos
        (Printf.sprintf "expected ',' or '}' in object, found '%c'" c)

let decode ?(max_depth = 64) input =
  let cur = { input; len = String.length input; pos = 0; max_depth } in
  match
    let value = parse_value cur 0 in
    skip_ws cur;
    if cur.pos < cur.len then
      fail cur.pos
        (Printf.sprintf "trailing garbage starting with '%c'"
           (byte cur cur.pos));
    value
  with
  | value -> Ok value
  | exception Fail e -> Error e

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member key = function
  | Obj members -> List.assoc_opt key members
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let to_string_opt = function String s -> Some s | _ -> None

let to_float_opt = function
  | Float v -> Some v
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Float v
    when Float.is_integer v
         && v >= float_of_int min_int
         && v <= float_of_int max_int ->
      Some (int_of_float v)
  | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None
