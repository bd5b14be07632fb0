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

let encode_into buffer value =
  let rec go = function
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
            go item)
          items;
        Buffer.add_char buffer ']'
    | Obj members ->
        Buffer.add_char buffer '{';
        List.iteri
          (fun i (key, item) ->
            if i > 0 then Buffer.add_char buffer ',';
            escape_string buffer key;
            Buffer.add_char buffer ':';
            go item)
          members;
        Buffer.add_char buffer '}'
  in
  go value

let encode value =
  let buffer = Buffer.create 256 in
  encode_into buffer value;
  Buffer.contents buffer

(* Sized for a rendered answer, under the minor heap's 2 KiB limit. *)
let encode_line value =
  let buffer = Buffer.create 2000 in
  encode_into buffer value;
  Buffer.add_char buffer '\n';
  Buffer.contents buffer

(* ------------------------------------------------------------------ *)
(* Decoder                                                             *)

type error = { position : int; message : string }

let error_to_string e = Printf.sprintf "byte %d: %s" e.position e.message

exception Fail of error

let decode ?(max_depth = 64) input =
  let n = String.length input in
  let pos = ref 0 in
  let fail position message = raise (Fail { position; message }) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' ->
        fail !pos (Printf.sprintf "expected '%c', found '%c'" c c')
    | None -> fail n (Printf.sprintf "expected '%c', found end of input" c)
  in
  let skip_ws () =
    while
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          true
      | Some _ | None -> false
    do
      ()
    done
  in
  let literal word value =
    let start = !pos in
    let len = String.length word in
    if start + len <= n && String.sub input start len = word then begin
      pos := start + len;
      value
    end
    else fail start (Printf.sprintf "invalid literal (expected %S)" word)
  in
  (* Decode \uXXXX (with surrogate pairs) to UTF-8 bytes. *)
  let hex4 () =
    if !pos + 4 > n then fail n "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match input.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | c -> fail !pos (Printf.sprintf "invalid hex digit '%c'" c)
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
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
  in
  let parse_string () =
    expect '"';
    let buffer = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail n "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | None -> fail n "truncated escape"
          | Some '"' -> advance (); Buffer.add_char buffer '"'
          | Some '\\' -> advance (); Buffer.add_char buffer '\\'
          | Some '/' -> advance (); Buffer.add_char buffer '/'
          | Some 'n' -> advance (); Buffer.add_char buffer '\n'
          | Some 'r' -> advance (); Buffer.add_char buffer '\r'
          | Some 't' -> advance (); Buffer.add_char buffer '\t'
          | Some 'b' -> advance (); Buffer.add_char buffer '\b'
          | Some 'f' -> advance (); Buffer.add_char buffer '\012'
          | Some 'u' ->
              advance ();
              let escape_start = !pos - 2 in
              let cp = hex4 () in
              let cp =
                if cp >= 0xd800 && cp <= 0xdbff then begin
                  (* High surrogate: the low half must follow. *)
                  if
                    !pos + 2 <= n
                    && input.[!pos] = '\\'
                    && input.[!pos + 1] = 'u'
                  then begin
                    advance ();
                    advance ();
                    let low = hex4 () in
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
          | Some c ->
              fail (!pos) (Printf.sprintf "invalid escape '\\%c'" c));
          loop ()
      | Some c when Char.code c < 0x20 ->
          fail !pos "unescaped control character in string"
      | Some c ->
          advance ();
          Buffer.add_char buffer c;
          loop ()
    in
    loop ();
    Buffer.contents buffer
  in
  let parse_number () =
    let start = !pos in
    let accept predicate =
      match peek () with
      | Some c when predicate c ->
          advance ();
          true
      | Some _ | None -> false
    in
    let digit c = c >= '0' && c <= '9' in
    ignore (accept (( = ) '-'));
    if not (accept digit) then fail !pos "expected digit";
    while accept digit do () done;
    let is_float = ref false in
    if accept (( = ) '.') then begin
      is_float := true;
      if not (accept digit) then fail !pos "expected digit after '.'";
      while accept digit do () done
    end;
    if accept (fun c -> c = 'e' || c = 'E') then begin
      is_float := true;
      ignore (accept (fun c -> c = '+' || c = '-'));
      if not (accept digit) then fail !pos "expected digit in exponent";
      while accept digit do () done
    end;
    let text = String.sub input start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value depth =
    if depth > max_depth then fail !pos "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail n "expected a value, found end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec loop () =
            items := parse_value (depth + 1) :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                loop ()
            | Some ']' -> advance ()
            | Some c ->
                fail !pos
                  (Printf.sprintf "expected ',' or ']' in list, found '%c'" c)
            | None -> fail n "unterminated list"
          in
          loop ();
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let members = ref [] in
          let rec loop () =
            skip_ws ();
            (match peek () with
            | Some '"' -> ()
            | Some c ->
                fail !pos
                  (Printf.sprintf "expected object key, found '%c'" c)
            | None -> fail n "expected object key, found end of input");
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value (depth + 1) in
            members := (key, value) :: !members;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                loop ()
            | Some '}' -> advance ()
            | Some c ->
                fail !pos
                  (Printf.sprintf "expected ',' or '}' in object, found '%c'"
                     c)
            | None -> fail n "unterminated object"
          in
          loop ();
          Obj (List.rev !members)
        end
    | Some c -> fail !pos (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let value = parse_value 0 in
    skip_ws ();
    (match peek () with
    | Some c ->
        fail !pos (Printf.sprintf "trailing garbage starting with '%c'" c)
    | None -> ());
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
