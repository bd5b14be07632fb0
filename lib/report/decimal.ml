(* The C conversion behind Printf's %f and %g: CamlinternalFormat
   calls it with the format "%.<precision><f|g>", so calling it with
   the same format gives the same bytes without building the format
   string or going through Printf's interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

(* 10^0 .. 10^22, each exactly representable as a double. *)
let pow10 = Array.init 23 (fun k -> Float.of_string ("1e" ^ Int.to_string k))
let int_pow10 = Array.init 10 (fun k -> int_of_float pow10.(k))
let fixed_formats = Array.init 18 (Printf.sprintf "%%.%df")
let general_formats = Array.init 18 (Printf.sprintf "%%.%dg")

let format formats letter precision =
  if precision < Array.length formats then formats.(precision)
  else "%." ^ Int.to_string precision ^ letter

let fallback b formats letter precision v =
  Buffer.add_string b (format_float (format formats letter precision) v)

let two_31 = 2147483648.

(* round(a * 10^k) for a >= 0 and 0 <= k <= 22, or -1 when the
   product is not below 2^31 (nan included) or lies within 1e-6 of a
   rounding tie. Below 2^31 the product's rounding error is at most
   2^31 * 2^-53 < 2.4e-7, and 10^k is exact, so outside the tie band
   the computed product rounds to the same integer as the exact one:
   the integer glibc's exact conversion prints. *)
let round_scaled a k =
  let s = a *. pow10.(k) in
  if s < two_31 then
    let n = int_of_float s in
    let frac = s -. float_of_int n in
    if Float.abs (frac -. 0.5) < 1e-6 then -1
    else if frac > 0.5 then n + 1
    else n
  else -1

(* Append the digits of n from position k (10^k) up, at least up to
   position d, with '.' between positions d and d - 1 when d > 0. *)
let rec add_digits b n k d =
  if n >= 10 || k < d then add_digits b (n / 10) (k + 1) d;
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)));
  if k = d && d > 0 then Buffer.add_char b '.'

(* Append n / 10^d with exactly d decimals: at least one integer
   digit, then '.' and d digits when d > 0. *)
let add_scaled b n d = add_digits b n 0 d

let add_fixed b d v =
  if d < 0 then invalid_arg "Decimal.add_fixed: negative precision";
  let n = if d < Array.length pow10 then round_scaled (Float.abs v) d else -1 in
  if n < 0 then fallback b fixed_formats "f" d v
  else begin
    if Float.sign_bit v then Buffer.add_char b '-';
    add_scaled b n d
  end

(* A lower bound on floor(log10 a) for a in [1e-5, 1e8): exact from 1
   up, where the powers of ten compared with are exact; below 1 the
   rounded product may overshoot by one, so one is taken off. *)
let exponent_floor a =
  if a >= 1. then
    let rec up e = if pow10.(e + 1) <= a then up (e + 1) else e in
    up 0
  else
    let rec down e = if a *. pow10.(-e) >= 1. || e <= -6 then e else down (e - 1) in
    down (-1) - 1

(* Append n / 10^d without the trailing zeros of its decimals, nor a
   bare point. *)
let rec add_stripped b n d =
  if d > 0 && n mod 10 = 0 then add_stripped b (n / 10) (d - 1)
  else add_scaled b n d

(* %.<p>g: with X the exponent the value has once rounded to p
   significant digits, C prints in the style of %f with p - 1 - X
   decimals when -4 <= X < p, then drops trailing zeros and a bare
   point; otherwise in the style of %e. Only the %f style is written
   here, by [settle]: X is the smallest exponent at which the rounded
   significand n = round(a * 10^(p - 1 - X)) stays below 10^p, so the
   search starts from a lower bound and steps up. [false] means
   nothing was written. *)
let rec settle b p v a x =
  if x >= p then false
  else
    let n = round_scaled a (p - 1 - x) in
    if n < 0 then false
    else if n >= int_pow10.(p) then settle b p v a (x + 1)
    else if x < -4 then false
    else begin
      if Float.sign_bit v then Buffer.add_char b '-';
      add_stripped b n (p - 1 - x);
      true
    end

let add_general b p v =
  if p < 0 then invalid_arg "Decimal.add_general: negative precision";
  let p' = Int.max p 1 in
  let a = Float.abs v in
  let fast = p' <= 8 && a >= 1e-5 && a < pow10.(p') in
  if not (fast && settle b p' v a (exponent_floor a)) then
    fallback b general_formats "g" p v
