(* FNV-1a, 64-bit: one multiply and one xor per byte, excellent
   dispersion for short ASCII records, and trivially portable — the
   journal needs tamper/tear detection, not cryptography. *)

let fnv_offset_basis = 0xCBF29CE484222325L
let prime = 0x100000001B3L

(* A local ref that never escapes is compiled to an unboxed mutable
   variable, so the fold allocates only the final result. *)
let sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Checksum.sub";
  let h = ref fnv_offset_basis in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  !h

let string s = sub s ~pos:0 ~len:(String.length s)

let hex_digits = "0123456789abcdef"

let to_hex h =
  String.init 16 (fun i ->
      hex_digits.[Int64.to_int (Int64.shift_right_logical h (60 - (4 * i))) land 15])

let hex_of_string s = to_hex (string s)
