(* The state words s0..s3 live at byte offsets 0, 8, 16 and 24 of a
   32-byte buffer, read and written with the unchecked 64-bit
   primitives: an [int64] loaded from it stays unboxed, so stepping the
   generator allocates nothing, where a record of [mutable int64]
   fields would box every word it stores. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let make s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  t

let of_state (s0, s1, s2, s3) =
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then
    invalid_arg "Xoshiro256.of_state: all-zero state is forbidden"
  else make s0 s1 s2 s3

let of_seed seed =
  let sm = Splitmix64.create seed in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  (* SplitMix64 output of four words is zero with probability 2^-256;
     guard anyway so of_state's invariant holds unconditionally. *)
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then make 1L s1 s2 s3
  else make s0 s1 s2 s3

(* Where the build inlines across modules (dune's release profile, not
   its [-opaque] dev profile), a caller that consumes the result at once,
   as [Rng.float] does, never boxes it either. *)
let[@inline] next t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 and s3 = Int64.logxor s3 s1 in
  set t 0 (Int64.logxor s0 s3);
  set t 8 (Int64.logxor s1 s2);
  set t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  set t 24 (rotl s3 45);
  result

(* Jump polynomial from the reference implementation: advances 2^128
   steps, equivalent to calling [next] that many times. *)
let jump_coeffs =
  [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL;
     0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

(* The 256 steps run on local mutable variables, which the native
   compiler keeps unboxed in registers; each step is [next]'s state
   update without its output. *)
let jump t =
  let s0 = ref (get t 0) and s1 = ref (get t 8) in
  let s2 = ref (get t 16) and s3 = ref (get t 24) in
  let j0 = ref 0L and j1 = ref 0L and j2 = ref 0L and j3 = ref 0L in
  for k = 0 to 3 do
    let coeff = Array.unsafe_get jump_coeffs k in
    for b = 0 to 63 do
      if Int64.logand coeff (Int64.shift_left 1L b) <> 0L then begin
        j0 := Int64.logxor !j0 !s0;
        j1 := Int64.logxor !j1 !s1;
        j2 := Int64.logxor !j2 !s2;
        j3 := Int64.logxor !j3 !s3
      end;
      let x2 = Int64.logxor !s2 !s0 and x3 = Int64.logxor !s3 !s1 in
      s2 := Int64.logxor x2 (Int64.shift_left !s1 17);
      s0 := Int64.logxor !s0 x3;
      s1 := Int64.logxor !s1 x2;
      s3 := rotl x3 45
    done
  done;
  set t 0 !j0;
  set t 8 !j1;
  set t 16 !j2;
  set t 24 !j3

let copy = Bytes.copy
let state t = (get t 0, get t 8, get t 16, get t 24)
