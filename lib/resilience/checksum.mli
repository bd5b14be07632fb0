(** 64-bit FNV-1a checksums for journal records.

    Every journal line carries its own checksum so that torn writes
    (a crash mid-append) and bit corruption are detected on load and
    degrade gracefully to the last verified record. FNV-1a is not
    cryptographic — it guards against accidents, not adversaries —
    which matches the journal's threat model (SIGKILL, OOM, power
    loss). *)

val string : string -> int64
(** FNV-1a 64-bit hash of a byte string. *)

val sub : string -> pos:int -> len:int -> int64
(** FNV-1a 64-bit hash of the [len] bytes of a string at [pos], without
    copying them out; [string s] is [sub s ~pos:0 ~len:(String.length s)].
    The fold allocates nothing per byte.
    @raise Invalid_argument if the range is not within the string. *)

val prime : int64
(** FNV-1a's 64-bit prime: {!sub} folds each byte [c] into the hash [h]
    as [(h lxor c) * prime]. For loops that checksum bytes as they
    produce or consume them, such as the journal's hex codec. *)

val to_hex : int64 -> string
(** Fixed-width (16 character) lowercase hex rendering. *)

val hex_of_string : string -> string
(** [to_hex (string s)]. *)
