(* Reproduction harness.

   Regenerates every table and figure of the paper's evaluation and
   prints paper-vs-measured verdicts: the four Section 4.2 tables
   (numeric equality), the thirteen figures (series summaries + the
   Section 4.3 shape claims), the Theorem 2 scaling experiment, the
   Section 7 extensions, the ablations, and a Monte-Carlo validation
   pass of the closed forms.

   Four timing gates follow, each a verdict of its own: the parallel
   engine's 1-vs-N-domain speed-up, the serve daemon's cache-hit
   speed-up, the sharded fleet's 4-vs-1-shard speed-up and the
   tracer's overhead. The identities behind them (determinism across
   domains, byte identity with the one-shot CLI, traced = untraced) are
   asserted by [dune runtest]; only the shards gate still compares
   bytes, across 1/2/4 shards, since the CLI cannot start a one-shard
   router. *)

let hera_env =
  lazy (Core.Env.of_config (Option.get (Platforms.Config.find "hera/xscale")))

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Reproduction                                                        *)

let reproduce_tables () =
  section "Section 4.2 tables (Hera/XScale) — paper vs measured";
  let env = Lazy.force hera_env in
  let all_entries =
    List.concat_map
      (fun (reference : Experiments.Tables42.table) ->
        let measured = Experiments.Tables42.compute env ~rho:reference.rho in
        print_string (Experiments.Tables42.render measured);
        print_newline ();
        Experiments.Tables42.compare env reference)
      Experiments.Tables42.paper
  in
  let ok = Report.Compare.all_ok all_entries in
  Printf.printf "table cells compared: %d; all match the paper: %b\n"
    (List.length all_entries) ok;
  ok

let summarize_panel (figure : Experiments.Figures.t) (series : Sweep.Series.t)
    =
  let steps proj =
    Sweep.Shape.step_values (Sweep.Shape.project series proj)
    |> List.map (Printf.sprintf "%g")
    |> String.concat ">"
  in
  Printf.printf
    "  fig %2d %-19s %-6s feasible %3.0f%%  max saving %5.1f%%  sigma1 %-20s sigma2 %s\n"
    figure.id figure.config
    (Sweep.Parameter.name series.parameter)
    (100. *. Sweep.Series.feasible_fraction series)
    (100. *. Sweep.Series.max_saving series)
    (steps Sweep.Shape.two_speed_sigma1)
    (steps Sweep.Shape.two_speed_sigma2)

let reproduce_figures ~points () =
  section "Figures 2-14 — panel summaries (two-speed optimum per axis)";
  List.iter
    (fun figure ->
      let panels = Experiments.Figures.run ~points figure in
      List.iter (summarize_panel figure) panels)
    Experiments.Figures.all

let reproduce_claims ~points () =
  section "Section 4.3 claims";
  let entries = Experiments.Claims.all ~points () in
  List.iter (fun e -> Format.printf "  %a@." Report.Compare.pp_entry e) entries;
  let ok = Report.Compare.all_ok entries in
  Printf.printf "claims checked: %d; all reproduce: %b\n" (List.length entries)
    ok;
  ok

let reproduce_theorem2 () =
  section "Theorem 2 — Theta(lambda^(-2/3)) scaling";
  let r = Experiments.Theorem2.run () in
  List.iter2
    (fun (lambda, w2) (_, wa) ->
      Printf.printf "  lambda=%9.3g  numeric Wopt=%12.1f  closed form=%12.1f\n"
        lambda w2 wa)
    r.w_twice r.w_analytic;
  Printf.printf
    "  fitted exponent (s2=2s1): %.4f (paper: -0.6667)\n\
    \  fitted exponent (s2=s1):  %.4f (Young/Daly: -0.5000)\n\
    \  max |numeric - closed form| / closed form: %.2e\n"
    r.slope_twice r.slope_same r.max_analytic_gap;
  Float.abs (r.slope_twice +. (2. /. 3.)) < 0.02

let reproduce_ablations () =
  section "Ablations (design-choice costs across the 8 configurations)";
  let show title rows =
    Printf.printf "%s: max gap %+.3f%%\n"
      title
      (100. *. Experiments.Ablations.summarize rows);
    List.iter
      (fun (r : Experiments.Ablations.row) ->
        Printf.printf "  %-20s %8.2f -> %8.2f  (%+.3f%%)\n" r.config
          r.baseline r.ablated (100. *. r.gap))
      rows;
    rows
  in
  let ladder = show "discrete ladder vs continuous DVFS"
      (Experiments.Ablations.discrete_ladder ()) in
  let first_order = show "first-order period vs exact optimum"
      (Experiments.Ablations.first_order_optimizer ()) in
  let verif = show "verification cost (V vs 0)"
      (Experiments.Ablations.verification_cost ()) in
  (* Sanity of the three stories: coarse ladders cost real energy on
     XScale; the paper's first-order optimizer is essentially exact;
     verification is a small add-on. *)
  Experiments.Ablations.summarize ladder > 0.02
  && Experiments.Ablations.summarize first_order < 1e-3
  && Experiments.Ablations.summarize verif < 0.05

let reproduce_validation () =
  section "Monte-Carlo validation of Propositions 1-5";
  let scenarios =
    [
      Experiments.Validation.of_config ~lambda_scale:50.
        (Option.get (Platforms.Config.find "hera/xscale"));
      Experiments.Validation.of_config ~lambda_scale:50.
        (Option.get (Platforms.Config.find "atlas/crusoe"));
      Experiments.Validation.synthetic ~name:"synthetic mixed"
        ~fail_stop_fraction:0.5;
    ]
  in
  let checks = Experiments.Validation.run ~replicas:2000 ~seed:2016 scenarios in
  List.iter (fun c -> Format.printf "  %a@." Sim.Montecarlo.pp_check c) checks;
  Experiments.Validation.all_ok checks

let reproduce_extensions () =
  section "Extensions (Section 7 future work, solved numerically)";
  Printf.printf
    "exact mixed-error BiCrit, Hera/XScale, rho = 3 (f = fail-stop \
     fraction):\n";
  List.iter
    (fun (p : Experiments.Extensions.mixed_point) ->
      match p.solution with
      | Some s ->
          Printf.printf "  f=%.1f -> (%g, %g)  Wopt=%6.0f  E/W=%7.2f\n"
            p.fraction s.Core.Mixed_bicrit.sigma1 s.sigma2 s.w_opt
            s.energy_overhead
      | None -> Printf.printf "  f=%.1f -> infeasible\n" p.fraction)
    (Experiments.Extensions.fraction_sweep ());
  let anchor = Experiments.Extensions.silent_limit_matches_closed_form () in
  let solved, outside =
    Experiments.Extensions.coverage_beyond_validity ~fraction:0.5 ()
  in
  Printf.printf
    "  f=0 anchor vs closed form: relative gap %.2e; pairs outside the \
     first-order validity window solved: %d/%d\n"
    anchor solved outside;
  Printf.printf
    "\nmulti-verification patterns, Hera/XScale at 100x rate (m = \
     verifications per checkpoint):\n";
  List.iter
    (fun (p : Experiments.Extensions.verif_point) ->
      match p.solution with
      | Some s ->
          Printf.printf "  m=%d -> (%g, %g)  Wopt=%5.0f  E/W=%8.2f\n"
            p.verifications s.Core.Multi_verif.sigma1 s.sigma2 s.w_opt
            s.energy_overhead
      | None -> Printf.printf "  m=%d -> infeasible\n" p.verifications)
    (Experiments.Extensions.verification_sweep ());
  let best_m = Experiments.Extensions.best_verification_count () in
  Printf.printf "  best verification count at 100x rate: %d\n" best_m;
  anchor < 1e-2 && best_m > 1

(* ------------------------------------------------------------------ *)
(* Timing gates                                                        *)

let seconds f =
  let t0 = Unix.gettimeofday () in
  ignore (f ());
  Unix.gettimeofday () -. t0

let model =
  Core.Mixed.make ~c:300. ~r:300. ~v:15.4 ~lambda_f:0. ~lambda_s:1.69e-4 ()

let power = Core.Power.make ~kappa:1550. ~p_idle:60. ~p_io:5.2

let mc_estimate ~replicas pool =
  Sim.Montecarlo.pattern_estimate ~pool ~replicas ~seed:2016 ~model ~power
    ~w:2764. ~sigma1:0.4 ~sigma2:0.4 ()

let reproduce_parallel () =
  section "Parallel engine — 1-vs-N-domain speedup";
  let cores = Domain.recommended_domain_count () in
  let workers = Int.max 2 (Parallel.Pool.default_domain_count ()) in
  let one = Parallel.Pool.create ~domains:1 in
  let many = Parallel.Pool.create ~domains:workers in
  let env = Lazy.force hera_env in
  let grid pool =
    Sweep.Grid2d.run ~label:"bench" ~pool ~env ~rho:3.
      ~x:(Sweep.Parameter.C, List.init 17 (fun i -> 100. +. (250. *. float_of_int i)))
      ~y:(Sweep.Parameter.Lambda, List.init 13 (fun i -> 1e-6 *. (1.6 ** float_of_int i)))
      ()
  in
  (* Warm-up: pay code and allocator warm-up outside the timings. *)
  ignore (mc_estimate ~replicas:2000 one);
  ignore (mc_estimate ~replicas:2000 many);
  let mc_seq = seconds (fun () -> mc_estimate ~replicas:20_000 one) in
  let mc_par = seconds (fun () -> mc_estimate ~replicas:20_000 many) in
  let grid_seq = seconds (fun () -> grid one) in
  let grid_par = seconds (fun () -> grid many) in
  let mc_speedup = mc_seq /. mc_par in
  Printf.printf
    "  recommended domain count: %d (pool uses %d worker domains)\n\
    \  MC validation, 20k replicas:    1 domain %6.3f s  %d domains %6.3f s  \
     (%.2fx)\n\
    \  Hera/XScale 17x13 grid sweep:   1 domain %6.3f s  %d domains %6.3f s  \
     (%.2fx)\n"
    cores workers mc_seq workers mc_par mc_speedup grid_seq workers grid_par
    (grid_seq /. grid_par);
  if cores < 4 then
    Printf.printf
      "  note: only %d core(s) available here; the 2x speedup target needs \
       at least 4, so the verdict does not gate on it.\n"
      cores;
  mc_speedup >= 2. || cores < 4

(* ------------------------------------------------------------------ *)
(* One in-process server harness for the serve and shards gates        *)

(* Blocking reader of the newline-terminated response lines a server
   sends back on [fd]. Each line is cut out of the bytes not yet
   returned, which are copied again only when more are read: the
   client's cost stays linear in a pipelined batch, so the timed
   rounds measure the server rather than the reader. *)
let line_reader fd =
  let chunk = Bytes.create 65536 in
  let unread = ref "" and start = ref 0 in
  let rec read_line () =
    match String.index_from_opt !unread !start '\n' with
    | Some i ->
        let line = String.sub !unread !start (i - !start) in
        start := i + 1;
        line
    | None -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> failwith "bench: connection closed mid-batch"
        | got ->
            unread :=
              String.sub !unread !start (String.length !unread - !start)
              ^ Bytes.sub_string chunk 0 got;
            start := 0;
            read_line ())
  in
  read_line

let optimize_queries ~n ~rho ~step =
  List.init n (fun i ->
      Printf.sprintf {|{"route":"optimize","id":%d,"params":{"rho":%g}}|} i
        (rho +. (step *. float_of_int i)))

(* Validated off the clock: every id 0..n-1 answered exactly once, each
   with "status":"ok" and the expected "cached" flag. *)
let check_answers ~n ~cached lines =
  let seen = Array.make n false in
  let answer_ok line =
    match Server.Json.decode line with
    | Error _ -> false
    | Ok answer -> (
        let field key conv = Option.bind (Server.Json.member key answer) conv in
        match field "id" Server.Json.to_int_opt with
        | Some id when id >= 0 && id < n && not seen.(id) ->
            seen.(id) <- true;
            field "status" Server.Json.to_string_opt = Some "ok"
            && field "cached" Server.Json.to_bool_opt = Some cached
        | Some _ | None -> false)
  in
  Array.for_all answer_ok lines && Array.for_all Fun.id seen

type rounds = {
  cold : float;  (* seconds, the cold round *)
  hot : float;  (* seconds, the best of three hot rounds *)
  answers_ok : bool;  (* every round passed [check_answers] *)
  cold_answers : string list;  (* the cold round's raw lines, sorted *)
  extra : Server.Json.t option;  (* the answer to the extra query *)
}

(* Start a server in a domain of this process ([start ~socket_path
   ~stop ~on_ready] runs it until [stop] is set), wait until it
   listens, pipeline [queries] on one connection once cold and three
   times hot, send [extra_query], then stop and clean up. [None] when
   the server never came up. *)
let serve_rounds ~start ~queries ~extra_query =
  let dir = Filename.temp_file "rexspeed-bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket_path = Filename.concat dir "bench.sock" in
  let stop = Atomic.make false in
  let ready = Atomic.make false and ended = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        let r =
          start ~socket_path ~stop ~on_ready:(fun () -> Atomic.set ready true)
        in
        Atomic.set ended true;
        r)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      (match Domain.join server with
      | Ok () -> ()
      | Error e -> Printf.printf "  server error: %s\n" e);
      (try Sys.remove socket_path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  let rec await_ready tries =
    if Atomic.get ready then true
    else if Atomic.get ended || tries > 3000 then false
    else begin
      Unix.sleepf 0.01;
      await_ready (tries + 1)
    end
  in
  if not (await_ready 0) then None
  else begin
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket_path);
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    let send s =
      let off = ref 0 in
      while !off < String.length s do
        off := !off + Unix.write_substring fd s !off (String.length s - !off)
      done
    in
    let read_line = line_reader fd in
    let n = List.length queries in
    let batch = String.concat "" (List.map (fun q -> q ^ "\n") queries) in
    let round () =
      let lines = Array.make n "" in
      let dt =
        seconds (fun () ->
            send batch;
            for i = 0 to n - 1 do
              lines.(i) <- read_line ()
            done)
      in
      (dt, lines)
    in
    let cold, cold_lines = round () in
    (* A hot round is pure cache service (a few ms): one scheduler
       hiccup on a loaded box can outweigh it entirely, so take the
       best of three — the question is whether the cache *can* serve
       faster than recomputation, and one clean round settles it. *)
    let hot_rounds = List.map (fun _ -> round ()) [ 1; 2; 3 ] in
    let hot =
      List.fold_left (fun acc (t, _) -> Float.min acc t) infinity hot_rounds
    in
    send (extra_query ^ "\n");
    let extra = Result.to_option (Server.Json.decode (read_line ())) in
    Some
      {
        cold;
        hot;
        answers_ok =
          check_answers ~n ~cached:false cold_lines
          && List.for_all
               (fun (_, lines) -> check_answers ~n ~cached:true lines)
               hot_rounds;
        cold_answers = List.sort compare (Array.to_list cold_lines);
        extra;
      }
  end

let rate n seconds = float_of_int n /. Float.max seconds 1e-9

(* The member of the extra query's answer at [path], through [conv]. *)
let extra_at path conv r =
  Option.bind
    (List.fold_left
       (fun acc key -> Option.bind acc (Server.Json.member key))
       r.extra path)
    conv

let reproduce_serve () =
  section "Serve daemon — req/s and cache-hit speedup over a Unix socket";
  let n = 64 in
  let queries = optimize_queries ~n ~rho:2.5 ~step:0.01 in
  let gate domains =
    let pool = Parallel.Pool.create ~domains in
    let start ~socket_path ~stop ~on_ready =
      Server.Daemon.run ~pool ~on_ready ~stop
        { Server.Daemon.default_options with socket_path = Some socket_path }
    in
    match serve_rounds ~start ~queries ~extra_query:{|{"route":"stats"}|} with
    | None ->
        Printf.printf "  %d domain(s): daemon failed to start\n" domains;
        false
    | Some r ->
        let hits =
          Option.value ~default:0
            (extra_at [ "result"; "cache"; "hits" ] Server.Json.to_int_opt r)
        in
        let speedup = r.cold /. Float.max r.hot 1e-9 in
        Printf.printf
          "  %d domain(s): cold %6.3f s (%5.0f req/s)  hot %6.3f s (%5.0f \
           req/s)  speedup %4.1fx  hits %d\n"
          domains r.cold (rate n r.cold) r.hot (rate n r.hot) speedup hits;
        r.answers_ok && hits >= n && speedup >= 1.
  in
  Printf.printf "  %d distinct optimize queries per round, pipelined:\n" n;
  (* Timings vary with the machine; the verdict gates on correct
     responses, non-zero hit accounting and hits not slower than
     misses. *)
  List.for_all Fun.id (List.map gate [ 1; 2; 4 ])

let reproduce_shards () =
  section "Sharded serving — consistent-hash router, 1/2/4-shard scaling";
  (* The workers are real [rexspeed serve] processes, so the bench
     needs the CLI binary; under dune it sits next to this executable's
     directory. REXSPEED_BIN overrides for out-of-tree runs. *)
  let worker_exe =
    match Sys.getenv_opt "REXSPEED_BIN" with
    | Some path -> path
    | None ->
        Filename.concat
          (Filename.dirname Sys.executable_name)
          (Filename.concat ".." (Filename.concat "bin" "rexspeed.exe"))
  in
  if not (Sys.file_exists worker_exe) then begin
    Printf.printf
      "  worker binary not found at %s (set REXSPEED_BIN); section skipped\n"
      worker_exe;
    true
  end
  else begin
    let n = 96 in
    let queries = optimize_queries ~n ~rho:2.2 ~step:0.015 in
    let fleet shards =
      let start ~socket_path ~stop ~on_ready =
        Server.Router.run ~on_ready ~stop
          {
            Server.Router.default_options with
            socket_path = Some socket_path;
            shards;
            worker_exe;
            worker_args = [ "--cache-entries"; "256"; "--domains"; "1" ];
          }
      in
      match serve_rounds ~start ~queries ~extra_query:{|{"route":"health"}|} with
      | None ->
          Printf.printf "  %d shard(s): router failed to start\n" shards;
          None
      | Some r ->
          (* Fleet sanity off the clock: health must report the shard
             count and a serving fleet. *)
          let fleet_ok =
            extra_at [ "result"; "shards" ] Server.Json.to_int_opt r
            = Some shards
            && extra_at [ "result"; "status" ] Server.Json.to_string_opt r
               = Some "serving"
          in
          Printf.printf
            "  %d shard(s): cold %6.3f s (%5.0f req/s)  hot %6.3f s (%5.0f \
             req/s)  fleet health ok %b\n"
            shards r.cold (rate n r.cold) r.hot (rate n r.hot) fleet_ok;
          Some (r.answers_ok && fleet_ok, r)
    in
    Printf.printf "  %d distinct optimize queries per round, pipelined:\n" n;
    match List.map fleet [ 1; 2; 4 ] with
    | [ Some (ok1, r1); Some (ok2, r2); Some (ok4, r4) ] ->
        let identical =
          r1.cold_answers = r2.cold_answers && r1.cold_answers = r4.cold_answers
        in
        let cold_speedup = r1.cold /. Float.max r4.cold 1e-9 in
        let hot_speedup = r1.hot /. Float.max r4.hot 1e-9 in
        let cores = Domain.recommended_domain_count () in
        Printf.printf
          "  served bytes identical across 1/2/4 shards: %b\n\
          \  4-shard vs 1-shard: cold %.2fx  hot %.2fx (gate: hot >= 2x)\n"
          identical cold_speedup hot_speedup;
        if cores < 4 then
          Printf.printf
            "  note: only %d core(s) available here; a 1/2/4-shard fleet \
             cannot scale, so the verdict gates on correctness alone.\n"
            cores;
        ok1 && ok2 && ok4 && identical && (hot_speedup >= 2. || cores < 4)
    | _ -> false
  end

let reproduce_trace () =
  section "Tracing — hot-path overhead";
  let workers = Int.max 2 (Parallel.Pool.default_domain_count ()) in
  let pool = Parallel.Pool.create ~domains:workers in
  (* Paired off/on rounds on the 20k-replica MC hot path, default
     sampling stride, against the disarmed emission fast path. Each
     round times the two arms back-to-back so slow machine drift
     cancels out of the ratio, and the gate takes the minimum
     per-round overhead: a scheduler hiccup that lands on one arm of
     one round cannot fail the gate, while a real regression inflates
     every round. *)
  let hot () = mc_estimate ~replicas:20_000 pool in
  let traced_hot () =
    Tracing.Tracer.start ~sample_every:64 ();
    let v = hot () in
    ignore (Tracing.Tracer.finish ());
    v
  in
  (* Warm-up: pay code and allocator warm-up of both arms outside the
     rounds. *)
  ignore (hot ());
  ignore (traced_hot ());
  let pairs =
    List.map (fun _ -> (seconds hot, seconds traced_hot)) [ 1; 2; 3; 4; 5 ]
  in
  let fold f = List.fold_left f infinity pairs in
  let t_off = fold (fun acc (off, _) -> Float.min acc off) in
  let t_on = fold (fun acc (_, on) -> Float.min acc on) in
  let overhead = fold (fun acc (off, on) -> Float.min acc ((on -. off) /. off)) in
  Printf.printf
    "  MC validation, 20k replicas, %d domains (best of 5 paired rounds):\n\
    \  tracing off: %6.3f s\n\
    \  tracing on:  %6.3f s (sample-every 64) -> overhead %+.2f%% (gate < \
     3%%)\n"
    workers t_off t_on (100. *. overhead);
  overhead < 0.03

(* ------------------------------------------------------------------ *)

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let points = if quick then 21 else 41 in
  Printf.printf
    "rexspeed reproduction harness — 'A different re-execution speed can \
     help' (Benoit et al., 2016)\n";
  let tables_ok = reproduce_tables () in
  reproduce_figures ~points ();
  let claims_ok = reproduce_claims ~points () in
  let theorem2_ok = reproduce_theorem2 () in
  let extensions_ok = reproduce_extensions () in
  let ablations_ok = reproduce_ablations () in
  let validation_ok = reproduce_validation () in
  let parallel_ok = reproduce_parallel () in
  let serve_ok = reproduce_serve () in
  let shards_ok = reproduce_shards () in
  let trace_ok = reproduce_trace () in
  section "Verdict";
  let verdicts =
    [
      ("tables", tables_ok);
      ("claims", claims_ok);
      ("theorem2", theorem2_ok);
      ("extensions", extensions_ok);
      ("ablations", ablations_ok);
      ("monte-carlo", validation_ok);
      ("parallel", parallel_ok);
      ("serve", serve_ok);
      ("shards", shards_ok);
      ("trace", trace_ok);
    ]
  in
  Printf.printf "%s\n"
    (String.concat " | "
       (List.map (fun (name, ok) -> Printf.sprintf "%s: %b" name ok) verdicts));
  if List.for_all snd verdicts then print_endline "REPRODUCTION: OK"
  else begin
    print_endline "REPRODUCTION: FAILED";
    exit 1
  end
