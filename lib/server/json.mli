(** Minimal JSON for the query daemon — stdlib only, no opam deps.

    The encoder is {e canonical}: object members render in the order
    given, floats use the shortest decimal that round-trips, and there
    is no insignificant whitespace. Canonical bytes are what the
    request fingerprint (and hence the result cache) hashes, so two
    syntactically different spellings of the same request normalize to
    the same key once parsed and re-encoded.

    The decoder reports failures with the exact byte offset, so a
    client can see {e where} its request went wrong, and enforces a
    nesting-depth bound so a hostile request cannot blow the stack. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** Finite only: the encoder raises [Invalid_argument] on NaN or
          infinities, which JSON cannot represent, and the decoder
          never produces them. *)
  | String of string  (** UTF-8 bytes; encoder escapes as needed. *)
  | List of t list
  | Obj of (string * t) list
      (** Members in order; duplicate keys are preserved by the
          decoder and {!member} returns the first. *)

val encode : t -> string
(** Canonical one-line rendering (never contains ['\n'], so a value is
    always a valid line of a newline-delimited protocol).
    @raise Invalid_argument on a non-finite [Float]. *)

val encode_line : t -> string
(** [encode v ^ "\n"], built in one buffer: a protocol line ready to
    send, without copying the encoding to append its newline. *)

val encode_members : (string * t) list -> string
(** The members as {!encode} writes them inside an object, each one
    preceded by a comma: [,"k1":v1,"k2":v2]. Spliced after an object's
    first members and closed with ['}'], they encode the rest of that
    object, so a caller can encode the members it shares between
    several objects once and assemble each object by blits. *)

type error = { position : int; message : string }
(** [position] is the 0-based byte offset of the offending character
    (= input length when the input ends too early). *)

val error_to_string : error -> string
(** ["byte 12: expected ':' after object key"]-style rendering. *)

val decode : ?max_depth:int -> string -> (t, error) result
(** Parse one complete JSON value; trailing bytes other than
    whitespace are an error. Numbers with a ['.'], exponent, or too
    many digits for a native [int] decode as [Float], everything else
    as [Int]. A number a double cannot hold ([1e999], [-1e400], a
    400-digit integer) is an error at its first byte, ["number out of
    range"]: every decoded [Float] is finite, so every decoded value
    encodes. [max_depth] (default 64) bounds list/object nesting.

    The decoder allocates per value, not per byte: a string without
    escapes is one [String.sub], an integer of up to 18 digits no
    string at all. *)

(** {2 Accessors} — total, for protocol code that prefers [option] to
    pattern-matching every shape. *)

val member : string -> t -> t option
(** First member with this key, on [Obj]; [None] otherwise. *)

val to_string_opt : t -> string option
val to_float_opt : t -> float option
(** [Int] widens to [float]. *)

val to_int_opt : t -> int option
(** [Float] narrows only when integral and in native range. *)

val to_bool_opt : t -> bool option
