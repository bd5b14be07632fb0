(** Verified on-disk run journal — the tool's own checkpoints.

    The paper's discipline is checkpoint-with-verification: persist
    progress, and trust a checkpoint only after it is verified. This
    journal applies the same discipline to rexspeed's long-running
    workloads. A journal is a line-based, append-only text file:

    {v
    rexspeed-journal v1
    H <hex(description)> <fnv1a64>
    R <index> <hex(payload)> <fnv1a64>
    R <index> <hex(payload)> <fnv1a64>
    ...
    v}

    The header binds the run's {e fingerprint description} — workload
    name, configuration, root seed, slot count — so a journal can
    never be resumed into a different computation. Every line carries
    an FNV-1a checksum of its body; on {!read}, records are recovered
    until the first torn or corrupted line and everything after it is
    discarded (graceful degradation to the last verified record),
    mirroring how a verified checkpoint bounds re-execution after a
    crash. *)

val magic : string
(** First line of every journal: ["rexspeed-journal v1"]. *)

type writer
(** An open journal being appended to. *)

val create :
  ?sync:bool -> path:string -> description:string -> unit ->
  (writer, string) result
(** Truncate/create [path] and write the verified header; the header
    is flushed before returning, so even an immediately-killed run
    leaves a resumable (empty) journal. With [sync] (the default) the
    header is also [fsync]ed, extending the guarantee from
    process-crash durability to power-loss durability; [~sync:false]
    keeps the kernel-page-cache guarantee only (for benchmarks). *)

val reopen :
  ?sync:bool -> path:string -> valid_bytes:int -> unit ->
  (writer, string) result
(** Reopen an existing journal for appending after truncating it to
    [valid_bytes] (from {!read}) — dropping any torn or corrupted tail
    so new records follow the last verified one. [sync] as in
    {!create}. *)

val append : writer -> index:int -> payload:string -> unit
(** Buffer one record: slot [index] completed with [payload] (raw
    bytes; hex-encoded on disk). Call {!flush} to make a batch of
    appends crash-durable. *)

val flush : writer -> unit
(** Push buffered records to the OS ([Out_channel.flush]: survives
    SIGKILL), then — for a writer opened with [sync] — [Unix.fsync]
    them to stable storage (survives power loss or a kernel panic, up
    to what the device honours). The directory entry of a {e freshly
    created} journal is not fsynced, so a power cut racing the very
    first batch may lose the whole file but never leaves a torn one:
    recovery then simply starts from scratch. *)

val flush_cost : writer -> float
(** Seconds the writer's last durability point took: its last {!flush},
    or the header's flush until then. [0.] for a {!reopen}ed writer
    not yet flushed. Read through the tracing clock. *)

val close : writer -> unit

type recovered = {
  payloads : string option array;
      (** Slot [i] holds the recovered payload of record [i]. *)
  entries : int;  (** Distinct slots recovered. *)
  dropped : bool;  (** True if a torn/corrupted tail was discarded. *)
  valid_bytes : int;
      (** Length of the verified prefix; pass to {!reopen}. *)
}

val read :
  path:string -> description:string -> slots:int -> (recovered, string) result
(** Load and verify a journal. [Error] on I/O failure, bad magic,
    torn/corrupted header, or a fingerprint [description] that does
    not match the one the journal was created with (the error spells
    out both). Record-level damage is {e not} an error: recovery stops
    at the first invalid record and reports what survived. *)

(**/**)

val hex_encode : string -> string
val hex_decode : string -> string option
