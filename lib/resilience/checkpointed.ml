exception Journal_error of string

let () =
  Printexc.register_printer (function
    | Journal_error message -> Some ("Checkpointed.Journal_error: " ^ message)
    | _ -> None)

type journal = {
  path : string;
  resume : bool;
  description : string;
  durable : bool;
}

let default_batch = 64

(* One record per block: its index is the block's first slot, its
   payload the block's values marshalled together. Marshal round-trips
   every OCaml value exactly (floats included), and the journal's
   per-line checksum guards its integrity before we ever call
   [from_string]. Values are marshalled without sharing, which costs a
   third of the time: a block's values are results of a pure function,
   never cyclic, and any part they physically share comes back as an
   equal copy. The fingerprint (description, slot count and block
   size) guards the type and the grain: a journal can only be decoded
   by the computation that wrote it, and the [#block] tag refuses a
   journal of any other grain, per-slot journals included. *)
let encode (block : 'a array) = Marshal.to_string block [ Marshal.No_sharing ]
let decode payload : 'a array = Marshal.from_string payload 0

let fingerprint description n batch =
  Printf.sprintf "%s #slots=%d #block=%d" description n batch

let fail message = raise (Journal_error message)
let ok_or_fail = function Ok v -> v | Error message -> fail message

(* A crash between durability points loses the work done since the
   last one. One every [W] seconds of work, for a point costing [C]
   seconds and crashes every [1/lambda] seconds on average, minimizes
   the expected loss plus the cost of the points (the paper's fail-stop,
   single-speed case). *)
let crash_mtbf = 3600.

let durability_due ~cost ~work =
  cost <= 0. || work < 0.
  || work
     >= Numerics.Young_daly.failstop_period ~c:cost ~lambda:(1. /. crash_mtbf)

(* Recovered blocks go to [recovered.(b)] for block [b]; [on_resume]
   hears how many slots they hold. *)
let open_journal ~path ~resume ~description ~sync ~batch ~recovered ~on_resume
    n =
  if resume && Sys.file_exists path then
    Tracing.Tracer.with_span ~id:0 ~label:"journal.resume"
      Tracing.Span.Recover
    @@ fun () ->
    let r = ok_or_fail (Journal.read ~path ~description ~slots:n) in
    let slots = ref 0 in
    Array.iteri
      (fun b _ ->
        match r.Journal.payloads.(b * batch) with
        | Some payload ->
            let block = decode payload in
            recovered.(b) <- Some block;
            slots := !slots + Array.length block
        | None -> ())
      recovered;
    (match on_resume with
    | Some notify -> notify ~entries:!slots ~dropped:r.Journal.dropped
    | None -> ());
    ok_or_fail (Journal.reopen ~sync ~path ~valid_bytes:r.Journal.valid_bytes ())
  else ok_or_fail (Journal.create ~sync ~path ~description ())

(* The block [base, base + width) computed on [pool], failures reported
   at workload-global indices, not block-local ones. *)
let compute_block pool ~base width f =
  match Parallel.Pool.init_array pool width (fun j -> f (base + j)) with
  | values -> values
  | exception Parallel.Pool.Tasks_failed failures ->
      raise
        (Parallel.Pool.Tasks_failed
           (List.map
              (fun (fl : Parallel.Pool.failure) ->
                { fl with index = fl.index + base })
              failures))

let init_array ?pool ?journal ?(batch = default_batch) ?on_resume n f =
  if batch < 1 then invalid_arg "Checkpointed.init_array: batch must be >= 1";
  if n < 0 then invalid_arg "Checkpointed.init_array: negative length";
  let pool =
    match pool with Some p -> p | None -> Parallel.Pool.default ()
  in
  match journal with
  | None -> Parallel.Pool.init_array pool n f
  | Some { path; resume; description; durable } ->
      let description = fingerprint description n batch in
      let recovered = Array.make ((n + batch - 1) / batch) None in
      let writer =
        open_journal ~path ~resume ~description ~sync:durable ~batch
          ~recovered ~on_resume n
      in
      (* [since] is when the last durability point ended; [pending]
         holds the first slot of the last block appended after it, the
         durability point's span id. *)
      let since = ref (Tracing.Clock.now_s ()) and pending = ref None in
      let durability_point base =
        Tracing.Tracer.count Tracing.Span.Journal_flushes;
        Tracing.Tracer.with_span ~id:base Tracing.Span.Journal_flush (fun () ->
            Journal.flush writer);
        pending := None;
        since := Tracing.Clock.now_s ()
      in
      (* Every exit, a raise included, ends in a durability point, so
         every block completed before it is durable. *)
      let finish () =
        Fun.protect ~finally:(fun () -> Journal.close writer) @@ fun () ->
        Option.iter durability_point !pending
      in
      Fun.protect ~finally:finish @@ fun () ->
      (* Blocks run and append in index order, so the file's bytes do
         not depend on when durability points fall. *)
      let blocks =
        Array.init (Array.length recovered) (fun b ->
            match recovered.(b) with
            | Some values -> values
            | None ->
                let base = b * batch in
                let values = compute_block pool ~base (min batch (n - base)) f in
                Journal.append writer ~index:base ~payload:(encode values);
                pending := Some base;
                if
                  durability_due ~cost:(Journal.flush_cost writer)
                    ~work:(Tracing.Clock.now_s () -. !since)
                then durability_point base;
                values)
      in
      Array.concat (Array.to_list blocks)
