(** Exact decimal formatting of floats straight into a [Buffer].

    Each writer appends exactly the bytes of the [Printf] conversion it
    names, for every float: finite, infinite, nan, signed zero and
    subnormal alike. Most values are written from one rounded integer,
    with no intermediate string; the rest go through
    [caml_format_float], the C conversion [Printf] itself calls for
    [%f] and [%g], with the format string [Printf] would pass it.

    The integer path is taken when [|v| * 10^k] (with [k] the number
    of decimals written) is below [2^31] and at least [1e-6] away from
    a rounding tie. There the computed product rounds like the exact
    decimal expansion glibc converts, since its error is below
    [2.4e-7]. Everything else falls back: nan and infinities, larger
    or tie-close scaled values, and [%g] values that print in the
    style of [%e] (exponent below [-4] or at least the precision).
    Differential tests against [Printf] pin the equality. *)

val add_fixed : Buffer.t -> int -> float -> unit
(** [add_fixed b d v] appends [Printf.sprintf "%.*f" d v].
    @raise Invalid_argument if [d < 0]. *)

val add_general : Buffer.t -> int -> float -> unit
(** [add_general b p v] appends [Printf.sprintf "%.*g" p v]; [%g] is
    [p = 6]. The integer path covers [p <= 8].
    @raise Invalid_argument if [p < 0]. *)
