(** Plain-text table rendering for the benchmark harness and CLI.

    Produces the aligned ASCII tables that mirror the paper's Section
    4.2 tables and the per-figure series dumps. *)

type align = Left | Right

type t
(** A table under construction. *)

val create : ?aligns:align list -> header:string list -> unit -> t
(** [create ~header ()] starts a table; [aligns] defaults to [Right]
    for every column.
    @raise Invalid_argument if [header] is empty or [aligns] has a
    different length. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the header. *)

val add_row_with : t -> (Buffer.t -> int -> unit) -> unit
(** [add_row_with t write] adds a row whose cell [j] is what
    [write buffer j] appends to [buffer], called for each column [j]
    in order: cells are formatted straight into the table's storage,
    with no string per cell. [write] must only append. *)

val add_float_row : ?precision:int -> t -> float list -> unit
(** Formats each value with [%.*g] ([precision] defaults to 6); NaN
    renders as ["-"], matching the paper's infeasible-cell symbol.
    @raise Invalid_argument if the row width differs from the header
    or [precision < 0]. *)

val render : t -> string
(** The full table with a header separator, newline-terminated. *)

val render_to : Buffer.t -> t -> unit
(** [render_to b t] appends {!render}'s bytes to [b]. *)

val render_markdown : t -> string
(** GitHub-flavoured markdown rendering (pipes escaped in cells,
    alignment markers in the separator row). *)

val print : t -> unit
(** [print t] writes {!render} to stdout. *)
