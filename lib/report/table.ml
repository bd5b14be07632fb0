type align = Left | Right

(* Body cells are laid out back to back in [cells]; cell [i] (row-major)
   ends at [ends.(i)] and starts where cell [i - 1] ends. *)
type t = {
  header : string array;
  aligns : align array;
  cells : Buffer.t;
  mutable ends : int array;
  mutable count : int;
}

let create ?aligns ~header () =
  if header = [] then invalid_arg "Table.create: empty header";
  let aligns =
    match aligns with
    | None -> List.map (fun _ -> Right) header
    | Some a ->
        if List.length a <> List.length header then
          invalid_arg "Table.create: aligns/header length mismatch"
        else a
  in
  {
    header = Array.of_list header;
    aligns = Array.of_list aligns;
    cells = Buffer.create 1024;
    ends = Array.make 128 0;
    count = 0;
  }

let columns t = Array.length t.header

let end_cell t =
  if t.count = Array.length t.ends then begin
    let grown = Array.make (2 * t.count) 0 in
    Array.blit t.ends 0 grown 0 t.count;
    t.ends <- grown
  end;
  t.ends.(t.count) <- Buffer.length t.cells;
  t.count <- t.count + 1

let add_row_with t write =
  for j = 0 to columns t - 1 do
    write t.cells j;
    end_cell t
  done

let check_width t row =
  if List.length row <> columns t then
    invalid_arg "Table.add_row: wrong number of cells"

let add_row t row =
  check_width t row;
  List.iter
    (fun cell ->
      Buffer.add_string t.cells cell;
      end_cell t)
    row

let add_float_row ?(precision = 6) t row =
  check_width t row;
  if precision < 0 then invalid_arg "Table.add_float_row: negative precision";
  List.iter
    (fun v ->
      if Float.is_nan v then Buffer.add_char t.cells '-'
      else Decimal.add_general t.cells precision v;
      end_cell t)
    row

let rows t = t.count / columns t
let cell_start t i = if i = 0 then 0 else t.ends.(i - 1)

(* Row [r] of the body as strings, for the markdown renderer. *)
let row_strings t r =
  let c = columns t in
  List.init c (fun j ->
      let i = (r * c) + j in
      Buffer.sub t.cells (cell_start t i) (t.ends.(i) - cell_start t i))

(* Every line of the rendered table has the same length: cells are
   padded to their column's width, columns are two spaces apart, and
   the separator is all dashes. So the table is laid out in one
   space-filled block, each cell blitted to its place. *)
let render_to b t =
  let c = columns t in
  let widths = Array.map String.length t.header in
  for i = 0 to t.count - 1 do
    let j = i mod c in
    widths.(j) <- Int.max widths.(j) (t.ends.(i) - cell_start t i)
  done;
  let starts = Array.make c 0 in
  for j = 1 to c - 1 do
    starts.(j) <- starts.(j - 1) + widths.(j - 1) + 2
  done;
  let line = starts.(c - 1) + widths.(c - 1) + 1 in
  let block = Bytes.make (line * (rows t + 2)) ' ' in
  (* Where a [len]-byte cell of column [j] starts on line [l]. *)
  let place l j len =
    (l * line) + starts.(j)
    + match t.aligns.(j) with Left -> 0 | Right -> widths.(j) - len
  in
  Array.iteri
    (fun j h ->
      let len = String.length h in
      Bytes.blit_string h 0 block (place 0 j len) len)
    t.header;
  Bytes.fill block line (line - 1) '-';
  for i = 0 to t.count - 1 do
    let start = cell_start t i in
    let len = t.ends.(i) - start in
    Buffer.blit t.cells start block (place ((i / c) + 2) (i mod c) len) len
  done;
  for l = 1 to rows t + 2 do
    Bytes.set block ((l * line) - 1) '\n'
  done;
  Buffer.add_bytes b block

let render t =
  let b = Buffer.create (2 * (Buffer.length t.cells + 64)) in
  render_to b t;
  Buffer.contents b

let render_markdown t =
  let escape cell =
    String.concat "\\|" (String.split_on_char '|' cell)
  in
  let row cells = "| " ^ String.concat " | " (List.map escape cells) ^ " |" in
  let marker = function Left -> ":---" | Right -> "---:" in
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer (row (Array.to_list t.header));
  Buffer.add_char buffer '\n';
  Buffer.add_string buffer
    ("| "
    ^ String.concat " | " (List.map marker (Array.to_list t.aligns))
    ^ " |");
  Buffer.add_char buffer '\n';
  for r = 0 to rows t - 1 do
    Buffer.add_string buffer (row (row_strings t r));
    Buffer.add_char buffer '\n'
  done;
  Buffer.contents buffer

let print t = print_string (render t)
