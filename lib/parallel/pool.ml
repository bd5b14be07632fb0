type t = { domains : int }

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  { domains }

let sequential = { domains = 1 }
let domains t = t.domains
let env_var = "REXSPEED_DOMAINS"
let retries_env_var = "REXSPEED_RETRIES"

let default_domain_count () =
  let from_env =
    match Sys.getenv_opt env_var with
    | None -> None
    | Some s -> begin
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 1 -> Some n
        | Some _ | None -> None
      end
  in
  match from_env with
  | Some n -> n
  | None -> Int.max 1 (Domain.recommended_domain_count () - 1)

(* 0 = unset; the CLI writes it once at startup but Atomic keeps the
   default coherent if a worker ever reads it concurrently. *)
let default_override = Atomic.make 0
let set_default n = Atomic.set default_override (Int.max 1 n)

let default () =
  let n = Atomic.get default_override in
  { domains = (if n >= 1 then n else default_domain_count ()) }

(* ------------------------------------------------------------------ *)
(* Task-level fault tolerance                                          *)

type failure = { index : int; attempts : int; error : string }

exception Tasks_failed of failure list

exception Injected_fault of { index : int; attempt : int }

exception Worker_crash of { index : int; round : int }

let () =
  Printexc.register_printer (function
    | Injected_fault { index; attempt } ->
        Some
          (Printf.sprintf "Parallel.Pool.Injected_fault (task %d, attempt %d)"
             index attempt)
    | Worker_crash { index; round } ->
        Some
          (Printf.sprintf "Parallel.Pool.Worker_crash (task %d, round %d)"
             index round)
    | Tasks_failed failures ->
        Some
          (Printf.sprintf "Parallel.Pool.Tasks_failed: %s"
             (String.concat "; "
                (List.map
                   (fun f ->
                     Printf.sprintf "task %d failed after %d attempt(s): %s"
                       f.index f.attempts f.error)
                   failures)))
    | _ -> None)

let default_max_attempts = 10

(* 0 = unset; same Atomic discipline as [default_override]. *)
let max_attempts_override = Atomic.make 0
let set_max_attempts n = Atomic.set max_attempts_override (Int.max 1 n)

(* Read once, at start-up: the solver opens thousands of regions a
   second, and a [getenv] costs more than a small region. *)
let env_max_attempts =
  match Sys.getenv_opt retries_env_var with
  | None -> default_max_attempts
  | Some s -> begin
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> default_max_attempts
    end

let max_attempts () =
  let n = Atomic.get max_attempts_override in
  if n >= 1 then n else env_max_attempts

let fault_injector : (index:int -> attempt:int -> bool) option Atomic.t =
  Atomic.make None

let set_fault_injector f = Atomic.set fault_injector f

(* ------------------------------------------------------------------ *)
(* Worker supervision                                                  *)

(* Domain-death injection: unlike a task fault (trapped and retried in
   place), a fired domain fault kills the whole worker, abandoning the
   rest of its claimed chunk. The supervisor below detects the
   abandoned slots after the joins and re-executes them in a recovery
   round. Keyed on (index, round) — not attempt — because the retry
   loop never sees the crash. *)
let domain_fault_injector : (index:int -> round:int -> bool) option Atomic.t =
  Atomic.make None

let set_domain_fault_injector f = Atomic.set domain_fault_injector f

let max_recovery_rounds = 8

(* The pool's counter registry: the process-lifetime total of
   supervised worker restarts, which the daemon's [health] route
   reports as worker liveness. *)
let counters = Tracing.Counters.create ()
let worker_restarts () = Tracing.Counters.get counters Worker_restarts

(* ------------------------------------------------------------------ *)
(* Regions                                                             *)

(* True while this domain executes inside a parallel region — both in
   spawned workers and in the caller while it participates. Any pool
   call under the flag degrades to sequential, so composed layers
   (sweep cells invoking the solver, solvers invoking numerics) can
   all be pool-aware without ever nesting domains. *)
let in_region = Domain.DLS.new_key (fun () -> false)

(* One region's state, shared by its workers: each slot is written
   only by the worker that runs its task, and the failure list is
   pushed lock-free. Everything below is a top-level function over it,
   so a fault-free region allocates this record, its result slots and
   a few words per pass, not a closure per task. *)
type 'a region = {
  f : int -> 'a;
  attempts : int;
  results : 'a option array;
  failures : failure list Atomic.t;
}

let rec push failures failure =
  let old = Atomic.get failures in
  if not (Atomic.compare_and_set failures old (failure :: old)) then
    push failures failure

(* [f] must be restartable: pure per item, or failing before it
   mutates any state it owns. The injector fires {e before} [f] is
   entered, so injected faults always satisfy that contract regardless
   of what [f] does. *)
let attempt_once f i attempt =
  (match Atomic.get fault_injector with
  | Some inject when inject ~index:i ~attempt ->
      raise (Injected_fault { index = i; attempt })
  | Some _ | None -> ());
  f i

(* Retries are rare by construction, so each one affords a span of its
   own on top of the counter bump. *)
let retry_attempt f i attempt =
  Tracing.Tracer.count Tracing.Span.Retries;
  Tracing.Tracer.with_span ~id:i Tracing.Span.Pool_retry (fun () ->
      attempt_once f i attempt)

(* Task [i] from [attempt] on, with bounded retries; the outcome lands
   in its slot or in the failure list. *)
let rec attempt_from r i attempt =
  match
    if attempt = 1 then attempt_once r.f i 1 else retry_attempt r.f i attempt
  with
  | v -> r.results.(i) <- Some v
  | exception ((Out_of_memory | Stack_overflow | Worker_crash _) as e) ->
      raise e
  | exception e ->
      if attempt >= r.attempts then
        push r.failures
          { index = i; attempts = attempt; error = Printexc.to_string e }
      else attempt_from r i (attempt + 1)

let run_item r ~round i =
  (match Atomic.get domain_fault_injector with
  | Some kill when kill ~index:i ~round ->
      raise (Worker_crash { index = i; round })
  | Some _ | None -> ());
  (* Untraced, [with_task] would only call its argument: skip the
     closure. *)
  if Tracing.Tracer.enabled () then
    Tracing.Tracer.with_task ~index:i (fun () -> attempt_from r i 1)
  else attempt_from r i 1

(* One worker's share of a pass: claim chunks of the [m] positions of
   [todo] (every slot, in order, when [None]) until none is left. A
   crash abandons the unstarted remainder of the claimed chunk. *)
let rec claim r ~round ~chunk ~next ~crashed todo m =
  let start = Atomic.fetch_and_add next chunk in
  if start < m then begin
    (try
       for k = start to Int.min m (start + chunk) - 1 do
         run_item r ~round (match todo with None -> k | Some t -> t.(k))
       done
     with Worker_crash _ -> Atomic.incr crashed);
    claim r ~round ~chunk ~next ~crashed todo m
  end

(* One scheduling pass over [todo]; returns how many workers died (and
   were immediately replaced) mid-pass. A crash abandons the unstarted
   remainder of the dying worker's claimed chunk — those slots wait
   for the next recovery round — but the replacement worker resumes
   claiming fresh chunks at once, so a pass always drives every chunk
   to either completion or abandonment no matter how many workers die
   along the way. *)
let round_pass r ~extra_workers ~round ~chunk todo =
  let m =
    match todo with None -> Array.length r.results | Some t -> Array.length t
  in
  let next = Atomic.make 0 and crashed = Atomic.make 0 in
  (* Never spawn more workers than there are spare tasks. *)
  let spare = Int.max 0 (Int.min extra_workers (m - 1)) in
  let workers =
    if spare = 0 then [||]
    else
      Array.init spare (fun _ ->
          Domain.spawn (fun () ->
              Domain.DLS.set in_region true;
              claim r ~round ~chunk ~next ~crashed todo m))
  in
  claim r ~round ~chunk ~next ~crashed todo m;
  Array.iter Domain.join workers;
  Atomic.get crashed

(* Slots neither computed nor recorded as failed, in index order. *)
let unfinished r =
  let n = Array.length r.results in
  let failed = Array.make n false in
  List.iter (fun fl -> failed.(fl.index) <- true) (Atomic.get r.failures);
  let missing = ref [] in
  for i = n - 1 downto 0 do
    if Option.is_none r.results.(i) && not failed.(i) then
      missing := i :: !missing
  done;
  Array.of_list !missing

(* Supervised execution: schedule passes over a shrinking set of
   unfinished task indices until every slot is either computed or
   recorded as failed. A worker that dies (a {!Worker_crash} escaping
   the retry loop) abandons the rest of its claimed chunk; after the
   joins the supervisor collects the abandoned slots and re-executes
   them in a recovery round. Slots are keyed by the original task
   index, so a recovered run is bit-identical to an unfaulted one —
   supervision, like scheduling, only decides {e who} computes a slot.
   [extra_workers = 0] is the sequential path (nested regions, single
   domain, singleton batches); crashes there follow the exact same
   recovery rounds, keeping faulted runs identical across domain
   counts. *)
let rec supervise r ~extra_workers ~chunk ~round todo =
  (* Recovery rounds claim one task at a time: a crash mid-chunk
     abandons every unstarted task in that chunk, so with the
     first-round chunking a kill-heavy region could shed tasks faster
     than [max_recovery_rounds] passes reclaim them. Single-task
     claims make a repeated crash abandon only itself, which converges
     unless one index dies in every round. *)
  let crashed =
    round_pass r ~extra_workers ~round
      ~chunk:(if round = 0 then chunk else 1)
      todo
  in
  (* A pass in which no worker died finished every slot it was given,
     so only a pass with deaths needs the scan. *)
  let left = if crashed = 0 then [||] else unfinished r in
  if Array.length left > 0 then begin
    Tracing.Counters.bump counters ~n:crashed Worker_restarts;
    if round + 1 >= max_recovery_rounds then
      Array.iter
        (fun i ->
          push r.failures
            {
              index = i;
              attempts = r.attempts;
              error =
                Printf.sprintf
                  "worker domain died repeatedly; %d recovery round(s) \
                   exhausted"
                  max_recovery_rounds;
            })
        left
    else
      Tracing.Tracer.with_span ~id:(round + 1) Tracing.Span.Pool_restart
        (fun () ->
          supervise r ~extra_workers ~chunk ~round:(round + 1) (Some left))
  end

(* Failed slots stay [None]; the region still completes every other
   task so the report lists all exhausted tasks, not just the first. *)
let finalize r =
  match Atomic.get r.failures with
  | [] ->
      Array.map
        (function Some v -> v | None -> assert false (* no failure *))
        r.results
  | _ :: _ as failures ->
      raise
        (Tasks_failed
           (List.sort (fun a b -> Int.compare a.index b.index) failures))

let run_region r ~extra_workers ~chunk =
  supervise r ~extra_workers ~chunk ~round:0 None;
  finalize r

let run_rounds ~extra_workers ~chunk ~attempts n f =
  let r =
    { f; attempts; results = Array.make n None; failures = Atomic.make [] }
  in
  if extra_workers > 0 then begin
    Domain.DLS.set in_region true;
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set in_region false)
      (fun () -> run_region r ~extra_workers ~chunk)
  end
  else run_region r ~extra_workers ~chunk

let init_array ?chunk ?attempts t n f =
  if n < 0 then invalid_arg "Pool.init_array: negative length";
  (match chunk with
  | Some c when c < 1 -> invalid_arg "Pool.init_array: chunk must be >= 1"
  | Some _ | None -> ());
  (match attempts with
  | Some a when a < 1 -> invalid_arg "Pool.init_array: attempts must be >= 1"
  | Some _ | None -> ());
  let attempts =
    match attempts with Some a -> a | None -> max_attempts ()
  in
  if n = 0 then [||]
  else if Domain.DLS.get in_region then
    run_rounds ~extra_workers:0 ~chunk:n ~attempts n f
  else begin
    (* Top-level regions run one after another from the caller, so the
       tracer's region ordinal is deterministic; nested regions (the
       branch above) stay inside their enclosing task's spans. *)
    Tracing.Tracer.new_region ();
    if t.domains = 1 || n = 1 then
      run_rounds ~extra_workers:0 ~chunk:n ~attempts n f
    else
      let chunk =
        match chunk with
        | Some c -> c
        | None -> Int.max 1 (n / (8 * t.domains))
      in
      run_rounds ~extra_workers:(t.domains - 1) ~chunk ~attempts n f
  end

let map_array ?chunk ?attempts t f a =
  init_array ?chunk ?attempts t (Array.length a) (fun i -> f a.(i))

let map_list ?chunk ?attempts t f l =
  Array.to_list (map_array ?chunk ?attempts t f (Array.of_list l))

let map_reduce ?chunk ?attempts t ~map ~reduce ~init a =
  Array.fold_left reduce init (map_array ?chunk ?attempts t map a)
