(* The JSON decoder as it was before it was rewritten over a cursor:
   one closure per reader, an option per byte looked at. It stays as
   the reference the cursor decoder must match, value for value and
   error for error (position and message), on every input but a
   number a double cannot hold, which this one decodes to an infinite
   [Float] and the cursor decoder refuses. *)

open Server.Json

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
