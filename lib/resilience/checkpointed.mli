(** Checkpointed parallel execution: {!Parallel.Pool.init_array} with
    a verified on-disk {!Journal} underneath.

    Work proceeds in contiguous blocks of slots, one pool region each.
    A computed block is appended to the journal as one record: its
    index is the block's first slot, its payload the block's values
    marshalled together. Records go out in index order.

    The journal is the tool's own checkpoint, so it is made durable at
    the period the paper's first-order analysis prescribes for
    fail-stop errors at one speed: Young/Daly's [W = sqrt (2 C / lambda)]
    ({!Numerics.Young_daly.failstop_period}). [C] is the journal's own
    measured cost of a durability point (see {!Journal.flush_cost}), and
    [1/lambda] is {!crash_mtbf}. A durability point is made once the
    work done since the last one reaches [W], and every exit, a raise
    included, ends in one. So a crash loses at most [W] of work plus one
    block, and a finished run's journal is complete and durable.

    Resuming validates the journal's fingerprint, recovers every
    verified block whole, recomputes the missing blocks whole, and —
    because each slot's value is a pure function of its index —
    produces an array bit-identical to an uninterrupted run.

    The fingerprint names the grain ([#slots=N #block=B]); that tag is
    the journal format's version. A journal written at another grain,
    such as a per-slot journal from a build before block records, is
    refused with {!Journal_error} and never misread. *)

exception Journal_error of string
(** Raised when a journal cannot be created, read, or resumed — e.g. a
    fingerprint mismatch or an unreadable file. Record-level damage is
    not an error (recovery degrades to the last verified record). *)

type journal = {
  path : string;  (** Journal file location. *)
  resume : bool;
      (** [true]: recover verified records from an existing file
          (a missing file starts fresh). [false]: truncate and start
          a new journal. *)
  description : string;
      (** Run fingerprint — workload name, configuration and root
          seed. The slot count is appended automatically; a resumed
          journal must match exactly. *)
  durable : bool;
      (** [true]: every durability point (and the header) is
          [fsync]ed, so the blocks before it survive power loss and
          kernel panics, not just a killed process. [false] keeps the
          page-cache-only guarantee — measurably cheaper, meant for
          benchmarks. *)
}

val crash_mtbf : float
(** The crash MTBF the durability period assumes: one hour, in
    seconds. A constant, not an option. *)

val durability_due : cost:float -> work:float -> bool
(** [durability_due ~cost ~work]: is a durability point costing [cost]
    seconds due after [work] seconds of work since the last one? True
    once [work] reaches [failstop_period ~c:cost ~lambda:(1 /.
    crash_mtbf)]. With no positive measured cost yet, or a clock that
    stepped back ([work < 0]), it is due at once. *)

val init_array :
  ?pool:Parallel.Pool.t ->
  ?journal:journal ->
  ?batch:int ->
  ?on_resume:(entries:int -> dropped:bool -> unit) ->
  int ->
  (int -> 'a) ->
  'a array
(** [init_array ?pool ?journal n f] behaves exactly like
    {!Parallel.Pool.init_array} — same values, same order, same
    fault-tolerance contract — and additionally journals completed
    blocks of [batch] slots (default 64) when [?journal] is given. [f]
    must be pure per index (the standard pool contract); recovered
    slots do not call [f] at all.

    [on_resume] is invoked (at most once, before any computation) with
    the number of recovered slots (whole blocks) and whether a torn or
    corrupted tail was discarded — useful for progress notes on
    stderr.

    @raise Journal_error on journal create/read/resume failure.
    @raise Invalid_argument if [batch < 1] or [n < 0]. *)
