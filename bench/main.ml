(* Benchmark & reproduction harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   and prints paper-vs-measured verdicts: the four Section 4.2 tables
   (numeric equality), the thirteen figures (series summaries + the
   Section 4.3 shape claims), the Theorem 2 scaling experiment, and a
   Monte-Carlo validation pass of the closed forms.

   Part 2 times the computational kernels with Bechamel: one Test.make
   per paper table and per paper figure (plus the solver, simulator and
   Theorem 2 kernels), so regressions in the O(K^2) solve or the sweep
   engine are visible. *)

open Bechamel
open Toolkit

let hera_env =
  lazy (Core.Env.of_config (Option.get (Platforms.Config.find "hera/xscale")))

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Machine-readable mirror of the run: sections record scalar metrics
   as they measure them, the driver records every section verdict, and
   the harness writes both to BENCH.json (schema-versioned) so CI and
   regression tooling can diff runs without scraping stdout. *)
let bench_metrics : (string * float) list ref = ref []

let record_metric name value =
  if Float.is_finite value then
    bench_metrics := (name, value) :: !bench_metrics

let bench_json_path () =
  Option.value (Sys.getenv_opt "REXSPEED_BENCH_JSON") ~default:"BENCH.json"

let write_bench_json ~quick verdicts =
  let doc =
    Server.Json.Obj
      [
        ("schema_version", Server.Json.Int 1);
        ("quick", Server.Json.Bool quick);
        ( "verdicts",
          Server.Json.Obj
            (List.map (fun (name, ok) -> (name, Server.Json.Bool ok)) verdicts)
        );
        ( "metrics",
          Server.Json.Obj
            (List.rev_map
               (fun (name, value) -> (name, Server.Json.Float value))
               !bench_metrics) );
      ]
  in
  let path = bench_json_path () in
  Report.Csv.write_file ~path (Server.Json.encode doc ^ "\n");
  Printf.printf "machine-readable results: %s (schema 1)\n" path

(* ------------------------------------------------------------------ *)
(* Part 1: reproduction                                                *)

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

let reproduce_parallel () =
  section "Parallel engine — determinism and 1-vs-N-domain speedup";
  let cores = Domain.recommended_domain_count () in
  let workers = Int.max 2 (Parallel.Pool.default_domain_count ()) in
  let one = Parallel.Pool.create ~domains:1 in
  let many = Parallel.Pool.create ~domains:workers in
  let model =
    Core.Mixed.make ~c:300. ~r:300. ~v:15.4 ~lambda_f:0. ~lambda_s:1.69e-4 ()
  in
  let power = Core.Power.make ~kappa:1550. ~p_idle:60. ~p_io:5.2 in
  let estimate ~replicas pool =
    Sim.Montecarlo.pattern_estimate ~pool ~replicas ~seed:2016 ~model ~power
      ~w:2764. ~sigma1:0.4 ~sigma2:0.4 ()
  in
  let env = Lazy.force hera_env in
  let grid pool =
    Sweep.Grid2d.run ~label:"bench" ~pool ~env ~rho:3.
      ~x:(Sweep.Parameter.C, List.init 17 (fun i -> 100. +. (250. *. float_of_int i)))
      ~y:(Sweep.Parameter.Lambda, List.init 13 (fun i -> 1e-6 *. (1.6 ** float_of_int i)))
      ()
  in
  (* Determinism first: estimates and heatmaps must match the 1-domain
     run bit for bit at every domain count. *)
  let mc_reference = estimate ~replicas:2000 one in
  let heat g = Sweep.Grid2d.render_heatmap ~value:Sweep.Grid2d.saving g in
  let grid_reference = heat (grid one) in
  let determinism =
    List.for_all
      (fun d ->
        let pool = Parallel.Pool.create ~domains:d in
        estimate ~replicas:2000 pool = mc_reference
        && heat (grid pool) = grid_reference)
      [ 2; 4 ]
  in
  (* Wall-clock speedup on the two production workloads. *)
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let mc_seq = time (fun () -> estimate ~replicas:20_000 one) in
  let mc_par = time (fun () -> estimate ~replicas:20_000 many) in
  let grid_seq = time (fun () -> grid one) in
  let grid_par = time (fun () -> grid many) in
  let mc_speedup = mc_seq /. mc_par in
  record_metric "parallel.mc_speedup" mc_speedup;
  record_metric "parallel.grid_speedup" (grid_seq /. grid_par);
  Printf.printf
    "  recommended domain count: %d (pool uses %d worker domains)\n\
    \  determinism (MC estimate + grid heatmap, domains in {1, 2, 4}): %b\n\
    \  MC validation, 20k replicas:    1 domain %6.3f s  %d domains %6.3f s  \
     (%.2fx)\n\
    \  Hera/XScale 17x13 grid sweep:   1 domain %6.3f s  %d domains %6.3f s  \
     (%.2fx)\n"
    cores workers determinism mc_seq workers mc_par mc_speedup grid_seq
    workers grid_par (grid_seq /. grid_par);
  if cores < 4 then
    Printf.printf
      "  note: only %d core(s) available here; the 2x speedup target needs \
       at least 4, so the verdict gates on determinism alone.\n"
      cores;
  determinism && (mc_speedup >= 2. || cores < 4)

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel timing                                             *)

let table_tests =
  List.map
    (fun (reference : Experiments.Tables42.table) ->
      let rho = reference.rho in
      Test.make
        ~name:(Printf.sprintf "table/rho=%g" rho)
        (Staged.stage (fun () ->
             let env = Lazy.force hera_env in
             ignore (Experiments.Tables42.compute env ~rho))))
    Experiments.Tables42.paper

let figure_tests =
  List.map
    (fun (figure : Experiments.Figures.t) ->
      Test.make
        ~name:(Printf.sprintf "figure/%d" figure.id)
        (Staged.stage (fun () ->
             ignore (Experiments.Figures.run ~points:11 figure))))
    Experiments.Figures.all

let kernel_tests =
  [
    Test.make ~name:"kernel/bicrit-solve"
      (Staged.stage (fun () ->
           ignore (Core.Bicrit.solve (Lazy.force hera_env) ~rho:3.)));
    Test.make ~name:"kernel/exact-overheads"
      (Staged.stage (fun () ->
           let env = Lazy.force hera_env in
           ignore
             (Core.Exact.energy_overhead env.params env.power ~w:2764.
                ~sigma1:0.4 ~sigma2:0.4)));
    Test.make ~name:"kernel/mc-pattern-100"
      (Staged.stage
         (let model =
            Core.Mixed.make ~c:300. ~r:300. ~v:15.4 ~lambda_f:0.
              ~lambda_s:1.69e-4 ()
          in
          let power = Core.Power.make ~kappa:1550. ~p_idle:60. ~p_io:5.2 in
          let rng = Prng.Rng.create ~seed:1 in
          fun () ->
            let machine = Sim.Machine.create power in
            for _ = 1 to 100 do
              ignore
                (Sim.Executor.run_pattern ~model ~machine ~rng ~w:2764.
                   ~sigma1:0.4 ~sigma2:0.4 ())
            done));
    Test.make ~name:"kernel/theorem2-minimize"
      (Staged.stage (fun () ->
           ignore
             (Core.Second_order.w_opt_exact ~c:300. ~r:300. ~lambda:1e-7
                ~sigma1:1. ~sigma2:2.)));
    Test.make ~name:"extension/mixed-bicrit"
      (Staged.stage (fun () ->
           let env = Lazy.force hera_env in
           ignore
             (Core.Mixed_bicrit.of_env env ~fail_stop_fraction:0.5 ~rho:3.)));
    Test.make ~name:"extension/multi-verif"
      (Staged.stage (fun () ->
           let env = Lazy.force hera_env in
           let t =
             Core.Multi_verif.make env.params ~verifications:3
           in
           ignore
             (Core.Multi_verif.solve_pattern t env.power ~rho:3. ~sigma1:0.4
                ~sigma2:0.4)));
    Test.make ~name:"ablation/continuous-dvfs"
      (Staged.stage (fun () ->
           let env = Lazy.force hera_env in
           ignore
             (Core.Continuous.solve ~grid:24 ~refinement_rounds:2 env.params
                env.power ~rho:3.)));
    Test.make ~name:"sim/platform-1024-nodes"
      (Staged.stage
         (let platform =
            Sim.Platform_sim.make ~nodes:1024 ~node_lambda_f:0.
              ~node_lambda_s:(3.38e-6 /. 1024. *. 50.)
              ~c:300. ~v:15.4 ()
          in
          let power = Core.Power.make ~kappa:1550. ~p_idle:60. ~p_io:5.2 in
          let rng = Prng.Rng.create ~seed:3 in
          fun () ->
            let machine = Sim.Machine.create power in
            ignore
              (Sim.Platform_sim.run_pattern platform ~machine ~rng ~w:2764.
                 ~sigma1:0.4 ~sigma2:0.4 ())));
  ]

(* 1-domain vs N-domain timings of the two parallelized production
   workloads, so scaling regressions show up next to the kernels. *)
let parallel_tests =
  let mc_test domains =
    let model =
      Core.Mixed.make ~c:300. ~r:300. ~v:15.4 ~lambda_f:0. ~lambda_s:1.69e-4
        ()
    in
    let power = Core.Power.make ~kappa:1550. ~p_idle:60. ~p_io:5.2 in
    let pool = Parallel.Pool.create ~domains in
    Test.make
      ~name:(Printf.sprintf "parallel/mc-validation-%ddom" domains)
      (Staged.stage (fun () ->
           ignore
             (Sim.Montecarlo.pattern_estimate ~pool ~replicas:500 ~seed:1
                ~model ~power ~w:2764. ~sigma1:0.4 ~sigma2:0.4 ())))
  in
  let grid_test domains =
    let pool = Parallel.Pool.create ~domains in
    Test.make
      ~name:(Printf.sprintf "parallel/grid-sweep-%ddom" domains)
      (Staged.stage (fun () ->
           let env = Lazy.force hera_env in
           ignore
             (Sweep.Grid2d.run ~label:"bench" ~pool ~env ~rho:3.
                ~x:
                  ( Sweep.Parameter.C,
                    List.init 9 (fun i -> 100. +. (500. *. float_of_int i)) )
                ~y:
                  ( Sweep.Parameter.Lambda,
                    List.init 7 (fun i -> 1e-6 *. (2.5 ** float_of_int i)) )
                ())))
  in
  let n = Int.max 2 (Parallel.Pool.default_domain_count ()) in
  [ mc_test 1; mc_test n; grid_test 1; grid_test n ]

let run_benchmarks () =
  section "Bechamel micro-benchmarks (one per table, one per figure)";
  let tests =
    Test.make_grouped ~name:"rexspeed" ~fmt:"%s %s"
      (table_tests @ figure_tests @ kernel_tests @ parallel_tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    (* rexspeed-lint: allow RX004 order normalised by the sort below *)
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Printf.printf "%-36s %15s %10s\n" "benchmark" "time/run" "r^2";
  Printf.printf "%s\n" (String.make 63 '-');
  List.iter
    (fun (name, ols) ->
      let time_ns =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> t
        | Some [] | None -> nan
      in
      let r2 =
        match Analyze.OLS.r_square ols with Some r -> r | None -> nan
      in
      let pretty t =
        if Float.is_nan t then "-"
        else if t >= 1e9 then Printf.sprintf "%.3f s" (t /. 1e9)
        else if t >= 1e6 then Printf.sprintf "%.3f ms" (t /. 1e6)
        else if t >= 1e3 then Printf.sprintf "%.3f us" (t /. 1e3)
        else Printf.sprintf "%.1f ns" t
      in
      Printf.printf "%-36s %15s %10.4f\n" name (pretty time_ns) r2)
    rows

(* ------------------------------------------------------------------ *)

let reproduce_resilience () =
  section "Resilience — journal overhead, resume and chaos identity";
  let workers = Int.max 2 (Parallel.Pool.default_domain_count ()) in
  let pool = Parallel.Pool.create ~domains:workers in
  let model =
    Core.Mixed.make ~c:300. ~r:300. ~v:15.4 ~lambda_f:0. ~lambda_s:1.69e-4 ()
  in
  let power = Core.Power.make ~kappa:1550. ~p_idle:60. ~p_io:5.2 in
  let replicas = 20_000 in
  let estimate ?journal ?on_resume () =
    Sim.Montecarlo.pattern_estimate ~pool ?journal ?on_resume ~replicas
      ~seed:2016 ~model ~power ~w:2764. ~sigma1:0.4 ~sigma2:0.4 ()
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let path = Filename.temp_file "rexspeed-bench" ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let journal resume =
    (* [durable = false]: the sanctioned benchmark opt-out — fsync at
       each durability point would measure the disk, not the journal. *)
    {
      Resilience.Checkpointed.path;
      resume;
      description = "bench mc";
      durable = false;
    }
  in
  let reference, t_plain = time (fun () -> estimate ()) in
  let journaled, t_journal =
    time (fun () -> estimate ~journal:(journal false) ())
  in
  let resumed, t_resume = time (fun () -> estimate ~journal:(journal true) ()) in
  (* Simulate a mid-run crash: cut the file at half its bytes, which
     tears the record there whatever the format, and resume over the
     wreckage. *)
  Unix.truncate path ((Unix.stat path).Unix.st_size / 2);
  let recovered = ref 0 in
  let half_resumed, t_half =
    time (fun () ->
        estimate ~journal:(journal true)
          ~on_resume:(fun ~entries ~dropped:_ -> recovered := entries)
          ())
  in
  let chaos_ok =
    match Resilience.Chaos.configure ~p:0.2 ~seed:7 with
    | Error e ->
        Printf.printf "  chaos configure failed: %s\n" e;
        false
    | Ok () ->
        Fun.protect ~finally:Resilience.Chaos.disable @@ fun () ->
        let under_chaos, t_chaos = time (fun () -> estimate ()) in
        Printf.printf
          "  chaos p=0.2:          %6.3f s (vs %6.3f s fault-free)\n" t_chaos
          t_plain;
        under_chaos = reference
  in
  (* Worker supervision under kill chaos: domain deaths abandon whole
     claimed chunks, so this measures the recovery-round cost on top
     of the per-task retry cost above — and the recovered run must
     still be bit-identical. *)
  let supervised_ok =
    let io_cfg =
      { Resilience.Chaos.default_io_config with kill_p = 0.002; io_seed = 5 }
    in
    match Resilience.Chaos.configure_io io_cfg with
    | Error e ->
        Printf.printf "  io chaos configure failed: %s\n" e;
        false
    | Ok () ->
        Fun.protect ~finally:Resilience.Chaos.disable_io @@ fun () ->
        let before = Parallel.Pool.worker_restarts () in
        let under_kill, t_kill = time (fun () -> estimate ()) in
        let restarted = Parallel.Pool.worker_restarts () - before in
        Printf.printf
          "  kill p=0.002:         %6.3f s (%d supervised worker restart(s))\n"
          t_kill restarted;
        under_kill = reference && restarted > 0
  in
  record_metric "resilience.journal_overhead" (t_journal /. t_plain);
  Printf.printf
    "  MC validation, 20k replicas, %d domains:\n\
    \  plain:                %6.3f s\n\
    \  journaled:            %6.3f s (%.2fx write overhead)\n\
    \  resume, full journal: %6.3f s (recovers all %d slots)\n\
    \  resume, half journal: %6.3f s (recovers %d slots, recomputes %d)\n"
    workers t_plain t_journal (t_journal /. t_plain) t_resume replicas t_half
    !recovered (replicas - !recovered);
  let identity =
    journaled = reference && resumed = reference && half_resumed = reference
  in
  Printf.printf
    "  identity (journaled = resumed = half-resumed = chaos = killed = \
     plain): %b\n"
    (identity && chaos_ok && supervised_ok);
  (* Timings vary with the machine; the verdict gates on identity. *)
  identity && chaos_ok && supervised_ok

(* ------------------------------------------------------------------ *)

(* Blocking reader of the newline-terminated response lines a daemon
   sends back on [fd]. Each line is cut out of the bytes not yet
   returned, which are copied again only when more are read: the
   client's cost stays linear in a pipelined batch, so the timed
   rounds measure the daemon rather than the reader. *)
let line_reader ~what fd =
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
        | 0 -> failwith (what ^ ": connection closed mid-batch")
        | got ->
            unread :=
              String.sub !unread !start (String.length !unread - !start)
              ^ Bytes.sub_string chunk 0 got;
            start := 0;
            read_line ())
  in
  read_line

let reproduce_serve () =
  section "Serve daemon — req/s and cache-hit speedup over a Unix socket";
  let n = 64 in
  let requests =
    List.init n (fun i ->
        Printf.sprintf {|{"route":"optimize","id":%d,"params":{"rho":%g}}|} i
          (2.5 +. (0.01 *. float_of_int i)))
  in
  (* One daemon per domain count, on its own socket: pipeline the batch
     cold (all misses), again hot (all hits), read back stats, and keep
     the first response's output bytes for the cross-domain identity
     check. *)
  let bench_at domains =
    let dir = Filename.temp_file "rexspeed-serve-bench" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    let socket_path = Filename.concat dir "bench.sock" in
    let pool = Parallel.Pool.create ~domains in
    let options =
      {
        Server.Daemon.default_options with
        socket_path = Some socket_path;
        handle_signals = false;
      }
    in
    let ready = Atomic.make false in
    let daemon =
      Domain.spawn (fun () ->
          Server.Daemon.run ~pool
            ~on_ready:(fun () -> Atomic.set ready true)
            options)
    in
    Fun.protect
      ~finally:(fun () ->
        Server.Daemon.stop ();
        (match Domain.join daemon with
        | Ok () -> ()
        | Error e -> Printf.printf "  daemon error: %s\n" e);
        (try Sys.remove socket_path with Sys_error _ -> ());
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
    @@ fun () ->
    while not (Atomic.get ready) do
      Unix.sleepf 0.01
    done;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket_path);
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    let send lines =
      let payload = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
      let bytes = Bytes.of_string payload in
      let len = Bytes.length bytes in
      let off = ref 0 in
      while !off < len do
        off := !off + Unix.write fd bytes !off (len - !off)
      done
    in
    (* The responses of a pipelined batch come back in request order. *)
    let read_line = line_reader ~what:"serve bench" fd in
    let first_output = ref "" in
    let round ~expect_cached =
      let t0 = Unix.gettimeofday () in
      send requests;
      let ok = ref true in
      for i = 1 to n do
        match Server.Json.decode (read_line ()) with
        | Error _ -> ok := false
        | Ok response ->
            let member key = Server.Json.member key response in
            if
              Option.bind (member "status") Server.Json.to_string_opt
                <> Some "ok"
              || Option.bind (member "cached") Server.Json.to_bool_opt
                 <> Some expect_cached
            then ok := false;
            if i = 1 && not expect_cached then
              first_output :=
                Option.value ~default:""
                  (Option.bind (member "output") Server.Json.to_string_opt)
      done;
      (Unix.gettimeofday () -. t0, !ok)
    in
    let t_cold, cold_ok = round ~expect_cached:false in
    (* The hot round is pure cache service (~10 ms): one scheduler
       hiccup on a loaded box can outweigh it entirely, so take the
       best of three — the question is whether the cache *can* serve
       faster than recomputation, and one clean round settles it. *)
    let hot_rounds = List.map (fun _ -> round ~expect_cached:true) [ 1; 2; 3 ] in
    let t_hot =
      List.fold_left (fun acc (t, _) -> Float.min acc t) infinity hot_rounds
    in
    let hot_ok = List.for_all snd hot_rounds in
    let hits =
      send [ {|{"route":"stats"}|} ];
      match Server.Json.decode (read_line ()) with
      | Error _ -> 0
      | Ok response ->
          Option.value ~default:0
            (Option.bind
               (Option.bind
                  (Option.bind (Server.Json.member "result" response)
                     (Server.Json.member "cache"))
                  (Server.Json.member "hits"))
               Server.Json.to_int_opt)
    in
    let speedup = t_cold /. Float.max t_hot 1e-9 in
    record_metric
      (Printf.sprintf "serve.cold_rps.%ddom" domains)
      (float_of_int n /. Float.max t_cold 1e-9);
    record_metric
      (Printf.sprintf "serve.hot_rps.%ddom" domains)
      (float_of_int n /. Float.max t_hot 1e-9);
    Printf.printf
      "  %d domain(s): cold %6.3f s (%5.0f req/s)  hot %6.3f s (%5.0f \
       req/s)  speedup %4.1fx  hits %d\n"
      domains t_cold
      (float_of_int n /. Float.max t_cold 1e-9)
      t_hot
      (float_of_int n /. Float.max t_hot 1e-9)
      speedup hits;
    (cold_ok && hot_ok && hits >= n && speedup >= 1., !first_output)
  in
  Printf.printf "  %d distinct optimize queries per round, pipelined:\n" n;
  let results = List.map bench_at [ 1; 2; 4 ] in
  let identical =
    match results with
    | (_, reference) :: rest ->
        reference <> "" && List.for_all (fun (_, o) -> o = reference) rest
    | [] -> false
  in
  Printf.printf "  served bytes identical across 1/2/4 domains: %b\n" identical;
  (* Timings vary with the machine; the verdict gates on correct
     responses, non-zero hit accounting, hits not slower than misses,
     and cross-domain byte identity. *)
  List.for_all fst results && identical

(* ------------------------------------------------------------------ *)

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
    let requests =
      List.init n (fun i ->
          Printf.sprintf {|{"route":"optimize","id":%d,"params":{"rho":%g}}|} i
            (2.2 +. (0.015 *. float_of_int i)))
    in
    (* Non-allocating response checks: the timed loop must stay far
       cheaper per request than the worker's cache-hit service (request
       decode + response re-encode), or the bench client becomes the
       serial stage and masks the fleet's scaling. *)
    let starts_with ~at needle (line : string) =
      let ln = String.length needle in
      at >= 0
      && at + ln <= String.length line
      && (let ok = ref true in
          for j = 0 to ln - 1 do
            if String.unsafe_get line (at + j) <> needle.[j] then ok := false
          done;
          !ok)
    in
    let contains needle line =
      let last = String.length line - String.length needle in
      let rec at i = i <= last && (starts_with ~at:i needle line || at (i + 1)) in
      at 0
    in
    (* Responses interleave across shards, so identify each line by the
       restored client id: "{"id":N," with the daemon's fixed member
       order behind it. *)
    let response_id line =
      if not (starts_with ~at:0 {|{"id":|} line) then None
      else
        let len = String.length line in
        let rec digits i =
          if i < len && line.[i] >= '0' && line.[i] <= '9' then digits (i + 1)
          else i
        in
        let stop = digits 6 in
        if stop = 6 || not (starts_with ~at:stop {|,"status":"ok"|} line) then
          None
        else int_of_string_opt (String.sub line 6 (stop - 6))
    in
    let bench_at shards =
      let dir = Filename.temp_file "rexspeed-shard-bench" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o700;
      let socket_path = Filename.concat dir "router.sock" in
      let options =
        {
          Server.Router.default_options with
          socket_path = Some socket_path;
          shards;
          worker_exe;
          worker_args = [ "--cache-entries"; "256"; "--domains"; "1" ];
          handle_signals = false;
        }
      in
      let ready = Atomic.make false in
      let outcome = Atomic.make None in
      let router =
        Domain.spawn (fun () ->
            let r =
              Server.Router.run
                ~on_ready:(fun () -> Atomic.set ready true)
                options
            in
            Atomic.set outcome (Some r);
            r)
      in
      Fun.protect
        ~finally:(fun () ->
          Server.Router.stop ();
          (match Domain.join router with
          | Ok () -> ()
          | Error e -> Printf.printf "  router error: %s\n" e);
          (try Sys.remove socket_path with Sys_error _ -> ());
          try Unix.rmdir dir with Unix.Unix_error _ -> ())
      @@ fun () ->
      let rec await_ready tries =
        if Atomic.get ready then true
        else if Atomic.get outcome <> None || tries > 3000 then false
        else begin
          Unix.sleepf 0.01;
          await_ready (tries + 1)
        end
      in
      if not (await_ready 0) then begin
        Printf.printf "  %d shard(s): router failed to start\n" shards;
        None
      end
      else begin
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket_path);
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        @@ fun () ->
        let send lines =
          let payload = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
          let bytes = Bytes.of_string payload in
          let len = Bytes.length bytes in
          let off = ref 0 in
          while !off < len do
            off := !off + Unix.write fd bytes !off (len - !off)
          done
        in
        let read_line = line_reader ~what:"shard bench" fd in
        let first_cold = ref "" in
        let round ~expect_cached =
          (* Timed: send the batch, collect the raw lines. Validation
             happens off the clock below. *)
          let t0 = Unix.gettimeofday () in
          send requests;
          let lines = Array.make n "" in
          for i = 0 to n - 1 do
            lines.(i) <- read_line ()
          done;
          let dt = Unix.gettimeofday () -. t0 in
          let flag =
            if expect_cached then {|"cached":true|} else {|"cached":false|}
          in
          let seen = Array.make n false in
          let ok = ref true in
          Array.iter
            (fun line ->
              match response_id line with
              | Some id when id >= 0 && id < n && not seen.(id) ->
                  seen.(id) <- true;
                  if not (contains flag line) then ok := false;
                  if id = 0 && not expect_cached then first_cold := line
              | Some _ | None -> ok := false)
            lines;
          if not (Array.for_all Fun.id seen) then ok := false;
          (dt, !ok)
        in
        let t_cold, cold_ok = round ~expect_cached:false in
        (* Hot rounds are pure fleet-wide cache service; best of three
           for the same reason as the single-daemon serve bench. *)
        let hot_rounds =
          List.map (fun _ -> round ~expect_cached:true) [ 1; 2; 3 ]
        in
        let t_hot =
          List.fold_left (fun acc (t, _) -> Float.min acc t) infinity hot_rounds
        in
        let hot_ok = List.for_all snd hot_rounds in
        (* Fleet sanity off the clock: health must report the shard
           count and a serving fleet. *)
        let fleet_ok =
          send [ {|{"route":"health"}|} ];
          match Server.Json.decode (read_line ()) with
          | Error _ -> false
          | Ok response ->
              let result = Server.Json.member "result" response in
              Option.bind result (Server.Json.member "shards")
              |> Fun.flip Option.bind Server.Json.to_int_opt
              |> ( = ) (Some shards)
              && Option.bind result (Server.Json.member "status")
                 |> Fun.flip Option.bind Server.Json.to_string_opt
                 |> ( = ) (Some "serving")
        in
        let cold_rps = float_of_int n /. Float.max t_cold 1e-9 in
        let hot_rps = float_of_int n /. Float.max t_hot 1e-9 in
        record_metric (Printf.sprintf "shards.cold_rps.%d" shards) cold_rps;
        record_metric (Printf.sprintf "shards.hot_rps.%d" shards) hot_rps;
        Printf.printf
          "  %d shard(s): cold %6.3f s (%5.0f req/s)  hot %6.3f s (%5.0f \
           req/s)  fleet health ok %b\n"
          shards t_cold cold_rps t_hot hot_rps fleet_ok;
        Some (cold_ok && hot_ok && fleet_ok, t_cold, t_hot, !first_cold)
      end
    in
    Printf.printf "  %d distinct optimize queries per round, pipelined:\n" n;
    match List.map bench_at [ 1; 2; 4 ] with
    | [ Some (ok1, cold1, hot1, line1); Some (ok2, _, _, line2);
        Some (ok4, cold4, hot4, line4) ] ->
        let identical = line1 <> "" && line1 = line2 && line1 = line4 in
        let cold_speedup = cold1 /. Float.max cold4 1e-9 in
        let hot_speedup = hot1 /. Float.max hot4 1e-9 in
        record_metric "shards.cold_speedup_4v1" cold_speedup;
        record_metric "shards.hot_speedup_4v1" hot_speedup;
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

(* ------------------------------------------------------------------ *)

let reproduce_trace () =
  section "Tracing — Chrome export validity and hot-path overhead";
  let workers = Int.max 2 (Parallel.Pool.default_domain_count ()) in
  let pool = Parallel.Pool.create ~domains:workers in
  let power = Core.Power.make ~kappa:1550. ~p_idle:60. ~p_io:5.2 in
  let estimate ~model ~replicas () =
    Sim.Montecarlo.pattern_estimate ~pool ~replicas ~seed:2016 ~model ~power
      ~w:2764. ~sigma1:0.4 ~sigma2:0.4 ()
  in
  (* Validity: a fault-heavy short run sampled at every replication
     must produce parseable Chrome JSON covering all five paper
     phases, with every begin paired. *)
  let noisy =
    Core.Mixed.make ~c:300. ~r:300. ~v:15.4 ~lambda_f:5e-5 ~lambda_s:5e-5 ()
  in
  Tracing.Tracer.start ~sample_every:1 ();
  let traced_estimate = estimate ~model:noisy ~replicas:200 () in
  let dump = Option.get (Tracing.Tracer.finish ()) in
  let json = Tracing.Export.chrome_json dump in
  let categories =
    match Server.Json.decode ~max_depth:8 json with
    | Error _ -> []
    | Ok doc -> (
        match Server.Json.member "traceEvents" doc with
        | Some (Server.Json.List events) ->
            List.filter_map
              (fun e ->
                if
                  Option.bind (Server.Json.member "ph" e)
                    Server.Json.to_string_opt
                  = Some "X"
                then
                  Option.bind (Server.Json.member "cat" e)
                    Server.Json.to_string_opt
                else None)
              events
        | _ -> [])
  in
  let phases = [ "work"; "verify"; "checkpoint"; "recover"; "reexec" ] in
  let missing = List.filter (fun p -> not (List.mem p categories)) phases in
  let valid =
    categories <> []
    && Tracing.Export.unmatched dump = 0
    && missing = []
  in
  Printf.printf
    "  Chrome JSON: %d span(s), unmatched %d, paper phases missing: %s\n"
    (List.length (Tracing.Export.spans_of dump))
    (Tracing.Export.unmatched dump)
    (if missing = [] then "none" else String.concat "," missing);
  (* Tracing must observe, never perturb: the traced estimate and a
     trace-free rerun must be bit-identical. *)
  let identity = traced_estimate = estimate ~model:noisy ~replicas:200 () in
  (* Overhead: paired off/on rounds on the 20k-replica MC hot path,
     default sampling stride, against the disarmed emission fast path.
     Each round times the two arms back-to-back so slow machine drift
     cancels out of the ratio, and the gate takes the minimum per-round
     overhead: a scheduler hiccup that lands on one arm of one round
     cannot fail the gate, while a real regression inflates every
     round. *)
  let model =
    Core.Mixed.make ~c:300. ~r:300. ~v:15.4 ~lambda_f:0. ~lambda_s:1.69e-4 ()
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let hot () = estimate ~model ~replicas:20_000 () in
  let traced_hot () =
    Tracing.Tracer.start ~sample_every:64 ();
    let v = hot () in
    ignore (Tracing.Tracer.finish ());
    v
  in
  ignore (hot ()) (* warm-up: pay code/allocator warm-up outside the rounds *);
  let pairs =
    List.map (fun _ -> (time hot, time traced_hot)) [ 1; 2; 3; 4; 5 ]
  in
  let fold f = List.fold_left f infinity pairs in
  let t_off = fold (fun acc (off, _) -> Float.min acc off) in
  let t_on = fold (fun acc (_, on) -> Float.min acc on) in
  let overhead = fold (fun acc (off, on) -> Float.min acc ((on -. off) /. off)) in
  record_metric "trace.overhead_fraction" overhead;
  Printf.printf
    "  MC validation, 20k replicas, %d domains (best of 5 paired rounds):\n\
    \  tracing off: %6.3f s\n\
    \  tracing on:  %6.3f s (sample-every 64) -> overhead %+.2f%% (gate < \
     3%%)\n\
    \  export valid: %b | traced = untraced: %b\n"
    workers t_off t_on (100. *. overhead) valid identity;
  valid && identity && overhead < 0.03

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
  let resilience_ok = reproduce_resilience () in
  let serve_ok = reproduce_serve () in
  let shards_ok = reproduce_shards () in
  let trace_ok = reproduce_trace () in
  if not quick then run_benchmarks ();
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
      ("resilience", resilience_ok);
      ("serve", serve_ok);
      ("shards", shards_ok);
      ("trace", trace_ok);
    ]
  in
  Printf.printf "%s\n"
    (String.concat " | "
       (List.map (fun (name, ok) -> Printf.sprintf "%s: %b" name ok) verdicts));
  write_bench_json ~quick verdicts;
  if List.for_all snd verdicts then print_endline "REPRODUCTION: OK"
  else begin
    print_endline "REPRODUCTION: FAILED";
    exit 1
  end
