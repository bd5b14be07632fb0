(** Deterministic, fault-tolerant multicore execution engine.

    A fixed-size, [Domain]-backed worker pool with chunked scheduling
    and ordered result slots. Every mapping combinator writes the
    result of item [i] into slot [i] of a preallocated array, so the
    output is bit-identical to the sequential [Array.map] for any
    domain count — scheduling only decides {e who} computes a slot,
    never {e what} is computed or in which order results are combined.

    The contract for the mapped function [f] is the same as for a
    correct [Array.map] refactoring: [f] must be pure per item (no
    shared mutable state, no dependence on evaluation order). The
    Monte-Carlo harness satisfies this by pre-splitting one RNG stream
    per replica from the root seed {e before} dispatch; the sweep and
    solver layers are purely functional already.

    {2 Fault tolerance}

    A task that raises no longer aborts the region: the task is
    retried in place, up to {!max_attempts} attempts, and purity makes
    the retried result identical to a first-try success. Only when a
    task exhausts its attempts is it recorded as failed — the region
    still completes every other task, then raises {!Tasks_failed}
    carrying one structured report per exhausted task. Retries assume
    [f] is {e restartable}: pure, or failing before it mutates state
    it owns. Deterministic chaos testing (see [Resilience.Chaos])
    injects faults through {!set_fault_injector}, which fires before
    [f] is entered and therefore always satisfies that contract.

    Parallel regions never nest: a pool call issued from inside a
    worker (or from the caller while it participates in a region) runs
    sequentially on the spot — with the same retry semantics — so the
    domain count stays bounded by the pool size regardless of how the
    layers compose (e.g. a grid sweep whose cells each invoke the
    BiCrit solver).

    {2 Worker supervision}

    A worker domain that dies mid-region (modelled by {!Worker_crash}
    escaping the retry loop, injected deterministically through
    {!set_domain_fault_injector}) no longer takes the region down: a
    replacement worker resumes claiming work immediately, the
    supervisor bumps {!worker_restarts}, and the tasks the dead worker
    had claimed but not finished are re-executed in a recovery round —
    so a crashed domain degrades throughput, never results. Because slots are keyed by the original
    task index and [f] is pure, a recovered run is bit-identical to an
    unfaulted one at any domain count. Recovery rounds claim one task
    at a time, so a crash during recovery abandons only the crashed
    task, not a whole chunk. Recovery is bounded: after
    {!max_recovery_rounds} rounds the still-unfinished tasks are
    reported through {!Tasks_failed} like any exhausted task. *)

type t
(** A pool configuration. Cheap to create; worker domains are spawned
    per parallel region and joined before the combinator returns, so a
    pool holds no OS resources while idle. *)

val create : domains:int -> t
(** [create ~domains] is a pool of [domains] workers ([>= 1]); the
    calling domain counts as one worker, so [domains = 1] is the
    sequential pool and [domains = n] spawns [n - 1] extra domains per
    region. @raise Invalid_argument if [domains < 1]. *)

val sequential : t
(** [create ~domains:1]: never spawns, runs everything in the caller. *)

val domains : t -> int
(** The worker count the pool was created with. *)

val env_var : string
(** ["REXSPEED_DOMAINS"] — environment override for the default worker
    count. *)

val default_domain_count : unit -> int
(** The worker count used when no explicit pool is given: the value of
    {!env_var} if it parses as a positive integer, otherwise
    [Domain.recommended_domain_count () - 1] (leaving one core for the
    rest of the system), clamped to [>= 1]. *)

val set_default : int -> unit
(** Override the ambient worker count for this process (the CLI's
    [--domains] flag); clamped to [>= 1]. Takes precedence over
    {!env_var}. *)

val default : unit -> t
(** The ambient pool: [create ~domains:(set_default value or
    default_domain_count ())]. Library entry points use this when no
    [?pool] is passed. *)

(** {2 Failure reports and retry policy} *)

type failure = {
  index : int;  (** The task (result slot) that exhausted its retries. *)
  attempts : int;  (** Attempts made, = the bound in force. *)
  error : string;  (** [Printexc.to_string] of the last exception. *)
}

exception Tasks_failed of failure list
(** Raised by the combinators after the region has completed when at
    least one task exhausted its retry budget; the reports are sorted
    by ascending [index] and identical for any domain count. *)

exception Injected_fault of { index : int; attempt : int }
(** The synthetic failure raised when the installed fault injector
    fires for [(index, attempt)] — before the task function runs, so
    an injected fault never leaves partial state behind. *)

exception Worker_crash of { index : int; round : int }
(** The synthetic domain death raised when the domain fault injector
    fires for [(index, round)]. Unlike {!Injected_fault} it is never
    retried in place: it escapes the retry loop, kills the worker that
    was about to run task [index], and leaves recovery to the region
    supervisor. Raising it from task code has the same effect. *)

val retries_env_var : string
(** ["REXSPEED_RETRIES"] — environment override for the per-task
    attempt bound, read once, when the program starts: setting it
    later has no effect, {!set_max_attempts} does. *)

val default_max_attempts : int
(** [10]: the attempt bound when neither {!set_max_attempts} nor
    {!retries_env_var} is in effect. High enough that chaos testing at
    failure probability 0.2 exhausts a task with probability [~1e-7]. *)

val set_max_attempts : int -> unit
(** Override the per-task attempt bound for this process (the CLI's
    [--retries] flag); clamped to [>= 1]. [1] disables retrying. *)

val max_attempts : unit -> int
(** The attempt bound in force: the {!set_max_attempts} value if set,
    else {!retries_env_var} as read at start-up if it parsed as a
    positive integer, else {!default_max_attempts}. *)

val set_fault_injector : (index:int -> attempt:int -> bool) option -> unit
(** Install (or clear, with [None]) the deterministic fault injector.
    When present it is consulted before every task attempt, in every
    pool path including sequential degradation; returning [true]
    raises {!Injected_fault} for that attempt, which then follows the
    normal retry path. The injector must be a pure function of
    [(index, attempt)] — never of wall-clock or scheduling state — so
    injected runs stay reproducible and bit-identical across domain
    counts. *)

val set_domain_fault_injector : (index:int -> round:int -> bool) option -> unit
(** Install (or clear, with [None]) the deterministic domain-death
    injector. When present it is consulted before every task
    execution; returning [true] for [(index, round)] raises
    {!Worker_crash}, killing the worker that claimed the task (the
    caller counts as a worker — in sequential paths the pass is
    abandoned and recovered the same way). [round] is the supervision
    round: [0] for the initial pass, [1..] for recovery rounds, so an
    injector that keys on it can let a recovery succeed (or keep
    killing until {!max_recovery_rounds} is exhausted). Must be a pure
    function of [(index, round)] for reproducibility, like
    {!set_fault_injector}. *)

val max_recovery_rounds : int
(** [8]: scheduling passes the supervisor will run over one region
    (one initial pass plus up to 7 recovery rounds) before reporting
    the still-unfinished tasks as failures. *)

val worker_restarts : unit -> int
(** Process-lifetime total of supervised worker restarts — one per
    worker death detected at the end of a scheduling pass. Monotonic;
    callers interested in one region's restarts read it before and
    after. *)

(** {2 Combinators} *)

val init_array : ?chunk:int -> ?attempts:int -> t -> int -> (int -> 'a) -> 'a array
(** [init_array pool n f] is [Array.init n f] with the [n] evaluations
    distributed over the pool in chunks. [chunk] (default [max 1 (n /
    (8 * domains))]) is the number of consecutive indices a worker
    claims at a time; [attempts] (default {!max_attempts}[ ()]) bounds
    the per-task retries.

    A fault-free region allocates its result and a small constant: a
    result slot per task and a few words per region, no closure or
    bookkeeping per task. That is what lets a solver open one region per
    solve over a handful of tasks (a sequential 2-task region allocates
    about 20 words). Retries, worker deaths and a live trace session
    cost extra only where they happen.
    @raise Tasks_failed if any task exhausts its attempts.
    @raise Invalid_argument if [n < 0], [chunk < 1] or [attempts < 1]. *)

val map_array : ?chunk:int -> ?attempts:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array pool f a] is [Array.map f a], parallelized as
    {!init_array}. *)

val map_list : ?chunk:int -> ?attempts:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list pool f l] is [List.map f l] (same order), parallelized
    through an intermediate array. *)

val map_reduce :
  ?chunk:int -> ?attempts:int -> t -> map:('a -> 'b) ->
  reduce:('acc -> 'b -> 'acc) -> init:'acc -> 'a array -> 'acc
(** [map_reduce pool ~map ~reduce ~init a] maps in parallel, then folds
    the mapped values {e sequentially, left to right in index order}:
    [Array.fold_left reduce init (map_array pool map a)]. The ordered
    fold is what keeps floating-point reductions bit-identical across
    domain counts; the parallelism is confined to the map. *)
