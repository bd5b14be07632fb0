(** xoshiro256** generator (Blackman & Vigna 2018).

    The workhorse generator of the simulation substrate: 256-bit state,
    period 2^256 - 1, and a [jump] function advancing 2^128 steps so
    that replicas can draw from provably non-overlapping subsequences.
    The streams are the reference implementation's: [of_state (1L, 2L,
    3L, 4L)] yields 11520, 0, 1509978240, ... as the C code does.

    The state is held unboxed, so advancing it allocates nothing:
    [jump] allocates no memory at all once its table is built, and
    [next] at most the box of the [int64] it returns (none where it is
    inlined into a caller that consumes the value at once). *)

type t
(** Mutable generator state. *)

val of_seed : int64 -> t
(** [of_seed seed] initializes the 256-bit state from [seed] via
    SplitMix64, the initialization the authors recommend. *)

val of_state : int64 * int64 * int64 * int64 -> t
(** Build a generator from an explicit state.
    @raise Invalid_argument if the state is all zeros (the one
    forbidden state). *)

val next : t -> int64
(** Next raw 64-bit output; advances the state. *)

val jump : t -> unit
(** Advance the state by 2^128 steps: 32 table lookups xor-ed
    together, one per byte of the state, without allocating. The jump
    is linear over GF(2), so its table holds the image of every value
    of every state byte (32 x 256 entries of 4 words, 256 KiB). The
    table is built on a process's first jump (well under a
    millisecond) and is safe to build from several domains at once; a
    process that never jumps pays neither the build nor the memory. *)

val copy : t -> t
(** Snapshot of the current state. *)

val state : t -> int64 * int64 * int64 * int64
(** Current state words (for serialization in traces). *)

(**/**)

val jump_reference : t -> unit
(** The jump by its polynomial: 256 steps of the state update, the
    reference implementation's loop. The table is built from it, and
    tests check [jump] against it bit for bit. *)
