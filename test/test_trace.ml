(* Tests for the tracing subsystem: per-domain span balance, Chrome
   trace_event JSON shape, determinism modulo the timestamp columns,
   and pool integration across domain counts. *)

let traced ?sample_every f =
  Tracing.Tracer.start ?sample_every ();
  match f () with
  | v -> (
      match Tracing.Tracer.finish () with
      | Some dump -> (v, dump)
      | None -> Alcotest.fail "finish returned no dump for an active session")
  | exception e ->
      ignore (Tracing.Tracer.finish ());
      raise e

(* A deterministic workload that exercises every paper-phase category
   plus nested runtime spans; pure per task, so valid on any pool. *)
let workload pool n =
  Parallel.Pool.init_array pool n (fun i ->
      Tracing.Tracer.phase_begin Tracing.Span.Work;
      let acc = ref 0. in
      for k = 1 to 200 do
        acc := !acc +. (float_of_int (i + k) ** 0.5)
      done;
      Tracing.Tracer.phase_end Tracing.Span.Work;
      Tracing.Tracer.phase_begin Tracing.Span.Verify;
      Tracing.Tracer.phase_end Tracing.Span.Verify;
      if i mod 2 = 0 then begin
        Tracing.Tracer.phase_begin Tracing.Span.Checkpoint;
        Tracing.Tracer.phase_end Tracing.Span.Checkpoint
      end
      else begin
        Tracing.Tracer.phase_begin Tracing.Span.Recover;
        Tracing.Tracer.phase_begin Tracing.Span.Reexec;
        Tracing.Tracer.phase_end Tracing.Span.Reexec;
        Tracing.Tracer.phase_end Tracing.Span.Recover
      end;
      Tracing.Tracer.count Tracing.Span.Cache_hits;
      !acc)

(* Every task opens a region of its own, as a sweep cell does when it
   calls the solver. The inner regions run inside the enclosing task at
   any domain count, and their phase events belong to it. An inner
   failure becomes a nan result rather than a retried outer task. *)
let nested_workload pool n =
  Parallel.Pool.init_array pool n (fun i ->
      match
        Parallel.Pool.init_array pool 3 (fun j ->
            Tracing.Tracer.phase_begin Tracing.Span.Work;
            let v = float_of_int ((8 * i) + j) ** 0.5 in
            Tracing.Tracer.phase_end Tracing.Span.Work;
            v)
      with
      | inner -> Array.fold_left ( +. ) 0. inner
      | exception (Parallel.Pool.Tasks_failed _ | Invalid_argument _) -> nan)

let span_key (s : Tracing.Export.span) =
  Printf.sprintf "%d/%d/%s/%s" s.epoch s.id
    (Tracing.Span.category_name s.category)
    s.label

(* ------------------------------------------------------------------ *)
(* Session lifecycle and balance                                       *)
(* ------------------------------------------------------------------ *)

let test_lifecycle () =
  Alcotest.(check bool) "disabled before start" false (Tracing.Tracer.enabled ());
  Alcotest.(check bool) "finish without session" true
    (Tracing.Tracer.finish () = None);
  let (), dump =
    traced (fun () ->
        Alcotest.(check bool) "enabled inside session" true
          (Tracing.Tracer.enabled ()))
  in
  Alcotest.(check int) "no spans" 0 (List.length (Tracing.Export.spans_of dump));
  Alcotest.(check bool) "disabled after finish" false (Tracing.Tracer.enabled ())

let test_balance () =
  let pool = Parallel.Pool.create ~domains:2 in
  let n = 16 in
  let _, dump = traced ~sample_every:1 (fun () -> workload pool n) in
  Alcotest.(check int) "all begins paired" 0 (Tracing.Export.unmatched dump);
  let spans = Tracing.Export.spans_of dump in
  (* Per task: one pool.task + work + verify + (checkpoint | recover +
     reexec) = 4 or 5 spans. *)
  let expected = n * 4 + (n / 2) in
  Alcotest.(check int) "span count" expected (List.length spans);
  List.iter
    (fun (s : Tracing.Export.span) ->
      Alcotest.(check bool) "t1 >= t0" true (s.t1 >= s.t0);
      Alcotest.(check bool) "self time within duration" true
        (s.self_s >= 0. && s.self_s <= s.t1 -. s.t0 +. 1e-9))
    spans;
  let counters = dump.Tracing.Tracer.counters in
  Alcotest.(check int) "cache.hits counter" n
    (List.assoc Tracing.Span.Cache_hits counters)

let test_sampling () =
  (* sample_every 4 keeps tasks 0, 4, 8, ... — each sampled task
     records its pool.task span plus its phase spans; unsampled tasks
     emit nothing at all (that silence is the overhead guarantee). *)
  let pool = Parallel.Pool.sequential in
  let n = 8 in
  let _, dump = traced ~sample_every:4 (fun () -> workload pool n) in
  let spans = Tracing.Export.spans_of dump in
  let by cat =
    List.length
      (List.filter
         (fun (s : Tracing.Export.span) -> s.category = cat)
         spans)
  in
  Alcotest.(check int) "sampled task spans only" 2 (by Tracing.Span.Pool_task);
  Alcotest.(check int) "work spans sampled" 2 (by Tracing.Span.Work);
  Alcotest.(check int) "verify spans sampled" 2 (by Tracing.Span.Verify);
  (* Tasks 0 and 4 are both even: pool.task + work + verify +
     checkpoint each, and nothing from the other six tasks. *)
  Alcotest.(check int) "no spans from unsampled tasks" 8 (List.length spans);
  Alcotest.(check int) "counters still count every task" n
    (List.assoc Tracing.Span.Cache_hits dump.Tracing.Tracer.counters)

let test_unsampled_task_allocates_nothing () =
  (* An unsampled task and the phase events inside it are the traced
     hot path: no allocation, no emission. *)
  let body () =
    Tracing.Tracer.phase_begin Tracing.Span.Work;
    Tracing.Tracer.phase_end Tracing.Span.Work
  in
  let run () = Tracing.Tracer.with_task ~index:1 body in
  let words, dump =
    traced ~sample_every:4 (fun () ->
        run ();
        Testutil.minor_words (fun () ->
            for _ = 1 to 1000 do
              run ()
            done))
  in
  Alcotest.(check (float 0.)) "words for 1000 unsampled tasks" 0. words;
  Alcotest.(check int) "nothing emitted" 0
    (List.length (Tracing.Export.spans_of dump))

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON shape                                       *)
(* ------------------------------------------------------------------ *)

(* The Chrome export of [dump], parsed: the document and its events. *)
let chrome_events dump =
  let json = Tracing.Export.chrome_json dump in
  let doc =
    match Server.Json.decode ~max_depth:8 json with
    | Ok doc -> doc
    | Error e ->
        Alcotest.failf "chrome_json does not parse: %s"
          (Server.Json.error_to_string e)
  in
  match Server.Json.member "traceEvents" doc with
  | Some (Server.Json.List events) -> (doc, events)
  | _ -> Alcotest.fail "traceEvents array missing"

let str k e = Option.bind (Server.Json.member k e) Server.Json.to_string_opt

(* All five paper-phase categories must be present as span cats. *)
let check_paper_phases events =
  let cats =
    List.filter_map (fun e -> if str "ph" e = Some "X" then str "cat" e else None)
      events
  in
  List.iter
    (fun want ->
      Alcotest.(check bool) (want ^ " category present") true
        (List.mem want cats))
    [ "work"; "verify"; "checkpoint"; "recover"; "reexec" ]

let test_chrome_json_shape () =
  let pool = Parallel.Pool.create ~domains:2 in
  let _, dump = traced ~sample_every:1 (fun () -> workload pool 8) in
  let doc, events = chrome_events dump in
  Alcotest.(check bool) "displayTimeUnit present" true
    (Server.Json.member "displayTimeUnit" doc <> None);
  let num k e = Option.bind (Server.Json.member k e) Server.Json.to_float_opt in
  let phases = ref [] in
  List.iter
    (fun e ->
      let ph =
        match str "ph" e with
        | Some ph -> ph
        | None -> Alcotest.fail "event without ph"
      in
      phases := ph :: !phases;
      Alcotest.(check bool) "event has name" true (str "name" e <> None);
      Alcotest.(check bool) "event has pid" true (num "pid" e <> None);
      match ph with
      | "M" ->
          Alcotest.(check (option string)) "metadata names a thread"
            (Some "thread_name") (str "name" e)
      | "X" ->
          Alcotest.(check bool) "complete event has ts" true (num "ts" e <> None);
          Alcotest.(check bool) "complete event has dur" true
            (num "dur" e <> None);
          Alcotest.(check bool) "ts rebased to >= 0" true
            (Option.get (num "ts" e) >= 0.);
          Alcotest.(check bool) "dur >= 0" true (Option.get (num "dur" e) >= 0.)
      | "C" ->
          Alcotest.(check bool) "counter event has args" true
            (Server.Json.member "args" e <> None)
      | other -> Alcotest.failf "unexpected event phase %S" other)
    events;
  Alcotest.(check bool) "has metadata events" true (List.mem "M" !phases);
  Alcotest.(check bool) "has complete events" true (List.mem "X" !phases);
  Alcotest.(check bool) "has a counter event" true (List.mem "C" !phases);
  check_paper_phases events

let test_traced_simulation_is_untraced () =
  (* Tracing observes and never perturbs: a fault-heavy Monte-Carlo
     estimate traced at every replica equals the untraced estimate bit
     for bit, and its export parses with all five paper phases and
     every begin paired. *)
  let pool = Parallel.Pool.create ~domains:2 in
  let model =
    Core.Mixed.make ~c:300. ~r:300. ~v:15.4 ~lambda_f:5e-5 ~lambda_s:5e-5 ()
  in
  let power = Core.Power.make ~kappa:1550. ~p_idle:60. ~p_io:5.2 in
  let estimate () =
    Sim.Montecarlo.pattern_estimate ~pool ~replicas:200 ~seed:2016 ~model
      ~power ~w:2764. ~sigma1:0.4 ~sigma2:0.4 ()
  in
  let traced_estimate, dump = traced ~sample_every:1 estimate in
  Alcotest.(check bool) "traced = untraced" true (traced_estimate = estimate ());
  Alcotest.(check int) "no unmatched begin" 0 (Tracing.Export.unmatched dump);
  check_paper_phases (snd (chrome_events dump))

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

(* Blank the numeric values of the "ts" and "dur" columns — the only
   fields allowed to differ between identical runs. *)
let normalize json =
  let b = Buffer.create (String.length json) in
  let n = String.length json in
  let starts_with i p =
    i + String.length p <= n && String.sub json i (String.length p) = p
  in
  let i = ref 0 in
  while !i < n do
    let key =
      if starts_with !i {|"ts":|} then Some 5
      else if starts_with !i {|"dur":|} then Some 6
      else None
    in
    match key with
    | Some len ->
        Buffer.add_string b (String.sub json !i len);
        i := !i + len;
        let numeric c =
          match c with '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true | _ -> false
        in
        while !i < n && numeric json.[!i] do
          incr i
        done;
        Buffer.add_char b 'T'
    | None ->
        Buffer.add_char b json.[!i];
        incr i
  done;
  Buffer.contents b

let run_once ?(workload = workload) ~domains n =
  let pool = Parallel.Pool.create ~domains in
  let result, dump = traced ~sample_every:1 (fun () -> workload pool n) in
  (result, dump)

let test_determinism () =
  let r1, d1 = run_once ~domains:2 24 in
  let r2, d2 = run_once ~domains:2 24 in
  Alcotest.(check bool) "results identical" true (r1 = r2);
  Alcotest.(check string) "traces byte-identical modulo timestamps"
    (normalize (Tracing.Export.chrome_json d1))
    (normalize (Tracing.Export.chrome_json d2))

(* Span identities (epoch, id, category, label) must not depend on
   the domain count; 1 and 2 and 4 domains see the same trace. *)
let check_domain_independence workload =
  let reference = ref None in
  List.iter
    (fun domains ->
      let r, dump = run_once ~workload ~domains 24 in
      Alcotest.(check int)
        (Printf.sprintf "balanced at %d domains" domains)
        0 (Tracing.Export.unmatched dump);
      let keys = List.map span_key (Tracing.Export.spans_of dump) in
      let normalized = normalize (Tracing.Export.chrome_json dump) in
      match !reference with
      | None -> reference := Some (r, keys, normalized)
      | Some (r0, keys0, normalized0) ->
          Alcotest.(check bool)
            (Printf.sprintf "results at %d domains match" domains)
            true (r = r0);
          Alcotest.(check (list string))
            (Printf.sprintf "span keys at %d domains match" domains)
            keys0 keys;
          Alcotest.(check string)
            (Printf.sprintf "normalized trace at %d domains matches" domains)
            normalized0 normalized)
    [ 1; 2; 4 ]

let test_pool_integration () = check_domain_independence workload

let test_nested_regions_keep_epoch () =
  (* A region opened inside a task is not a new epoch: its work is the
     enclosing task's, at one domain as at four. *)
  check_domain_independence nested_workload;
  let _, dump = run_once ~workload:nested_workload ~domains:1 24 in
  let epochs =
    List.sort_uniq Int.compare
      (List.map
         (fun (s : Tracing.Export.span) -> s.epoch)
         (Tracing.Export.spans_of dump))
  in
  Alcotest.(check (list int)) "one epoch for one top-level region" [ 1 ] epochs

let test_multi_region_epochs () =
  (* Two successive top-level regions reuse task indices; the epoch
     column must keep their spans distinct and ordered. *)
  let pool = Parallel.Pool.create ~domains:2 in
  let _, dump =
    traced ~sample_every:1 (fun () ->
        let a = workload pool 4 in
        let b = workload pool 4 in
        (a, b))
  in
  let spans = Tracing.Export.spans_of dump in
  let epochs =
    List.sort_uniq Int.compare
      (List.map (fun (s : Tracing.Export.span) -> s.epoch) spans)
  in
  Alcotest.(check int) "two distinct epochs" 2 (List.length epochs);
  let tasks_per_epoch e =
    List.length
      (List.filter
         (fun (s : Tracing.Export.span) ->
           s.epoch = e && s.category = Tracing.Span.Pool_task)
         spans)
  in
  List.iter
    (fun e -> Alcotest.(check int) "four tasks per epoch" 4 (tasks_per_epoch e))
    epochs;
  (* spans_of sorts by (epoch, id, lane): epochs appear in run order. *)
  let first_epoch = (List.hd spans).epoch in
  Alcotest.(check int) "first span belongs to the first region"
    (List.hd epochs) first_epoch

let test_summary () =
  let pool = Parallel.Pool.sequential in
  let _, dump = traced ~sample_every:1 (fun () -> workload pool 4) in
  let text = Tracing.Export.summary dump in
  let contains sub =
    let n = String.length sub and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("summary mentions " ^ sub) true (contains sub))
    [ "pool.task"; "work"; "verify"; "cache.hits" ]

(* ------------------------------------------------------------------ *)
(* Counter registry                                                    *)
(* ------------------------------------------------------------------ *)

let session_count dump counter =
  List.assoc counter dump.Tracing.Tracer.counters

let test_counters_per_owner () =
  let a = Tracing.Counters.create () and b = Tracing.Counters.create () in
  Tracing.Counters.bump a Tracing.Span.Sheds;
  Tracing.Counters.bump a ~n:3 Tracing.Span.Sheds;
  Tracing.Counters.bump b Tracing.Span.Cache_hits;
  Alcotest.(check (list int))
    "each owner counts its own bumps" [ 4; 0; 0; 1 ]
    Tracing.Counters.
      [
        get a Tracing.Span.Sheds;
        get a Tracing.Span.Cache_hits;
        get b Tracing.Span.Sheds;
        get b Tracing.Span.Cache_hits;
      ]

let test_counters_without_session () =
  let owner = Tracing.Counters.create () in
  Tracing.Counters.bump owner ~n:5 Tracing.Span.Router_routed;
  Alcotest.(check int) "owner counted" 5
    (Tracing.Counters.get owner Tracing.Span.Router_routed);
  (* A session started afterwards starts from zero: the earlier bumps
     reached no session. *)
  let (), dump = traced (fun () -> ()) in
  Alcotest.(check int) "no session saw them" 0
    (session_count dump Tracing.Span.Router_routed)

let test_counters_during_session () =
  let owner = Tracing.Counters.create () in
  Tracing.Counters.bump owner Tracing.Span.Verify_checks;
  let (), dump =
    traced (fun () ->
        Tracing.Counters.bump owner Tracing.Span.Verify_checks;
        Tracing.Counters.bump owner ~n:2 Tracing.Span.Verify_checks)
  in
  Alcotest.(check int) "owner counts every bump" 4
    (Tracing.Counters.get owner Tracing.Span.Verify_checks);
  Alcotest.(check int) "the dump counts the session's bumps" 3
    (session_count dump Tracing.Span.Verify_checks)

let () =
  Alcotest.run "trace"
    [
      ( "session",
        [
          Alcotest.test_case "lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "balance and counters" `Quick test_balance;
          Alcotest.test_case "phase sampling" `Quick test_sampling;
          Alcotest.test_case "unsampled task allocates nothing" `Quick
            test_unsampled_task_allocates_nothing;
        ] );
      ( "counters",
        [
          Alcotest.test_case "per owner" `Quick test_counters_per_owner;
          Alcotest.test_case "no session: owner only" `Quick
            test_counters_without_session;
          Alcotest.test_case "session: owner and dump" `Quick
            test_counters_during_session;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace_event shape" `Quick
            test_chrome_json_shape;
          Alcotest.test_case "ascii summary" `Quick test_summary;
          Alcotest.test_case "traced simulation = untraced" `Quick
            test_traced_simulation_is_untraced;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "identical runs" `Quick test_determinism;
          Alcotest.test_case "1/2/4 domains" `Quick test_pool_integration;
          Alcotest.test_case "1/2/4 domains, nested regions" `Quick
            test_nested_regions_keep_epoch;
          Alcotest.test_case "multi-region epochs" `Quick
            test_multi_region_epochs;
        ] );
    ]
