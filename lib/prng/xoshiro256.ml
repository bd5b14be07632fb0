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
   update without its output. This is the reference the table below is
   built from and tested against. *)
let jump_reference t =
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

(* The jump is linear over GF(2): the state update only xors, shifts
   and rotates, and the jump xors states together. So the image of a
   state is the xor of the images of its 32 bytes, each taken alone,
   and the table holds the image of every value of every byte: the
   32-byte entry for byte [k] of the state buffer holding [v] starts at
   offset [32 * (256 * k + v)]. Indexing the buffer's bytes, not the
   words' bits, makes the table independent of the host's byte order.
   Each byte's 8 one-bit images come from the reference jump; every
   other value's image is the xor of the images of its lowest set bit
   and of the rest, both already filled in. *)
let build_table () =
  let table = Bytes.make (32 * 256 * 32) '\000' in
  let unit = Bytes.create 32 in
  let entry k v = 32 * ((256 * k) + v) in
  for k = 0 to 31 do
    for b = 0 to 7 do
      Bytes.fill unit 0 32 '\000';
      Bytes.set unit k (Char.chr (1 lsl b));
      jump_reference unit;
      Bytes.blit unit 0 table (entry k (1 lsl b)) 32
    done;
    for v = 3 to 255 do
      let low = v land -v in
      if low <> v then
        for w = 0 to 3 do
          let at = 8 * w in
          set table
            (entry k v + at)
            (Int64.logxor
               (get table (entry k low + at))
               (get table (entry k (v - low) + at)))
        done
    done
  done;
  table

(* Built on the first jump, never in a process that does not split a
   stream. Two domains may race to build it: each builds a whole table
   of its own and the first one published wins; publication through the
   [Atomic] orders the table's writes before any read of it. *)
let table = Atomic.make Bytes.empty

let jump_table () =
  let t = Atomic.get table in
  if Bytes.length t > 0 then t
  else begin
    let built = build_table () in
    if Atomic.compare_and_set table Bytes.empty built then built
    else Atomic.get table
  end

let jump t =
  let table = jump_table () in
  let j0 = ref 0L and j1 = ref 0L and j2 = ref 0L and j3 = ref 0L in
  for k = 0 to 31 do
    let e = 32 * ((256 * k) + Char.code (Bytes.unsafe_get t k)) in
    j0 := Int64.logxor !j0 (get table e);
    j1 := Int64.logxor !j1 (get table (e + 8));
    j2 := Int64.logxor !j2 (get table (e + 16));
    j3 := Int64.logxor !j3 (get table (e + 24))
  done;
  set t 0 !j0;
  set t 8 !j1;
  set t 16 !j2;
  set t 24 !j3

let copy = Bytes.copy
let state t = (get t 0, get t 8, get t 16, get t 24)
