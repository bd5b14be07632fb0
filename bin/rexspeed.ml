(* rexspeed: command-line front end for the re-execution-speed model.

   Subcommands mirror the deliverables: [optimize] solves one BiCrit
   instance, [tables] and [figure] regenerate the paper's evaluation,
   [sweep] runs custom parameter sweeps, [simulate] cross-checks the
   model against the Monte-Carlo executor, [theorem2] runs the
   lambda^(-2/3) scaling experiment and [claims] the qualitative
   battery. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Exit codes and fatal errors. One table, advertised in every man
   page, and one [die] path, so codes and messages cannot drift apart
   subcommand by subcommand. Cmdliner owns 124 (usage) and 125
   (internal); rexspeed adds:

     1  infeasible bound, failed reproduction/validation check, or
        tasks that exhausted their retry budget
     2  unreadable or invalid configuration/environment/journal file,
        or a serve listener that cannot be bound *)

let exit_infeasible = 1
let exit_config = 2

let die code message =
  prerr_endline ("rexspeed: " ^ message);
  exit code

let exits =
  Cmd.Exit.info exit_infeasible
    ~doc:
      "on an infeasible performance bound, a failed reproduction or \
       validation check, or tasks that exhausted their retry budget."
  :: Cmd.Exit.info exit_config
       ~doc:
         "on an unreadable or invalid configuration, environment or journal \
          file, or a $(b,serve) listener that cannot be bound."
  :: Cmd.Exit.defaults

let trace_env_var = "REXSPEED_TRACE"
let trace_sample_env_var = "REXSPEED_TRACE_SAMPLE"

let envs =
  [
    Cmd.Env.info Resilience.Chaos.env_var
      ~doc:
        "Deterministic chaos injection, $(b,P) or $(b,P:SEED): fail each \
         task attempt with probability P (overridden by $(b,--chaos)).";
    Cmd.Env.info Resilience.Chaos.io_env_var
      ~doc:
        "Deterministic I/O-layer chaos, \
         $(b,drop=P,torn=P,corrupt=P,kill=P,seed=N) (any subset): drop \
         connections, tear response writes, corrupt computed responses \
         before verification, kill pool worker domains (overridden by \
         $(b,--chaos-io)).";
    Cmd.Env.info trace_env_var
      ~doc:
        "Write a Chrome trace_event profile of the run to this file \
         (overridden by $(b,--trace)).";
    Cmd.Env.info trace_sample_env_var
      ~doc:
        "Paper-phase span sampling stride for tracing (overridden by \
         $(b,--trace-sample)).";
  ]

let cmd_info name ~doc = Cmd.info name ~doc ~exits ~envs

(* Fatal conditions shared by the parallel/journaled commands, mapped
   onto the exit table. *)
let guarded run =
  match run () with
  | code -> code
  | exception Parallel.Pool.Tasks_failed failures ->
      List.iter
        (fun (f : Parallel.Pool.failure) ->
          Printf.eprintf "rexspeed: task %d failed after %d attempt(s): %s\n"
            f.index f.attempts f.error)
        failures;
      die exit_infeasible
        (Printf.sprintf "%d task(s) exhausted their retry budget"
           (List.length failures))
  | exception Resilience.Checkpointed.Journal_error message ->
      die exit_config message

let config_conv =
  let parse s =
    match Platforms.Config.find s with
    | Some c -> Ok c
    | None ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown configuration %S (expected platform/processor, e.g. \
                 hera/xscale)"
                s))
  in
  let print ppf c = Format.pp_print_string ppf (Platforms.Config.name c) in
  Arg.conv (parse, print)

let config_arg =
  let doc =
    "Platform/processor configuration (hera, atlas, coastal, coastal_ssd x \
     xscale, crusoe)."
  in
  Arg.(
    value
    & opt config_conv (Option.get (Platforms.Config.find "hera/xscale"))
    & info [ "c"; "config" ] ~docv:"PLATFORM/PROCESSOR" ~doc)

(* A bound the solver can take: finite and > 0, as the daemon's
   protocol requires. Anything else is a usage error naming --rho. *)
let rho_conv =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok rho when Float.is_finite rho && rho > 0. -> Ok rho
    | Ok _ ->
        Error (`Msg (Printf.sprintf "%S is not a finite positive number" s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let rho_arg =
  let doc =
    "Performance bound rho (admissible time-overhead factor): a finite \
     number > 0."
  in
  Arg.(value & opt rho_conv 3. & info [ "rho" ] ~docv:"RHO" ~doc)

let points_arg =
  let doc = "Number of samples along the sweep axis." in
  Arg.(value & opt (some int) None & info [ "points" ] ~docv:"N" ~doc)

(* Runtime setup for the deterministic parallel engine: worker
   domains, retry budget and chaos injection. A setup term rather than
   plain arguments so every hot-path subcommand can compose it in
   without threading state through its [run]. *)
let runtime_setup =
  let domains =
    let doc =
      "Worker domains for Monte-Carlo replication, grid/frontier sweeps and \
       large speed-pair enumerations. Results are bit-identical for any \
       value; the default is the machine's recommended domain count minus \
       one, at least 1."
    in
    let env = Cmd.Env.info Parallel.Pool.env_var in
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~env ~doc)
  in
  let retries =
    let doc =
      "Per-task attempt budget of the parallel engine (at least 1; 1 \
       disables retrying). A failing task is retried in place; only after \
       its budget is exhausted is it reported, without aborting the rest of \
       the region."
    in
    let env = Cmd.Env.info Parallel.Pool.retries_env_var in
    Arg.(value & opt (some int) None & info [ "retries" ] ~docv:"N" ~env ~doc)
  in
  let chaos =
    let doc =
      "Deterministic chaos testing: fail each task attempt with probability \
       $(docv) (in [0,1)), decided by a pure function of the chaos seed and \
       the task's index and attempt number. With retrying enabled, results \
       are bit-identical to a fault-free run."
    in
    Arg.(value & opt (some float) None & info [ "chaos" ] ~docv:"P" ~doc)
  in
  let chaos_seed =
    let doc =
      "Seed of the chaos decision stream (default 0). Only with $(b,--chaos)."
    in
    Arg.(value & opt (some int) None & info [ "chaos-seed" ] ~docv:"SEED" ~doc)
  in
  let chaos_io =
    let doc =
      "Deterministic I/O-layer chaos, \
       $(b,drop=P,torn=P,corrupt=P,kill=P,seed=N) (any subset of the keys): \
       drop connections instead of answering, tear response writes \
       byte-by-byte, corrupt computed responses before verified \
       re-execution, kill pool worker domains (recovered by the pool \
       supervisor). Decisions are pure in the seed and the request ordinal \
       or task index, so chaos runs replay bit-identically."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos-io" ] ~docv:"SPEC" ~doc)
  in
  let trace =
    let doc =
      "Profile the run and write a Chrome trace_event JSON file to $(docv) \
       (loadable in Perfetto / chrome://tracing); an ASCII flame summary \
       goes to stderr. Span identities derive from task indices, never the \
       clock, so traces of identical runs differ only in their timestamp \
       columns."
    in
    let env = Cmd.Env.info trace_env_var in
    Arg.(
      value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~env ~doc)
  in
  let trace_sample =
    let doc =
      "With $(b,--trace): record the paper-phase spans \
       (work/verify/checkpoint/recover/reexec) of every $(docv)-th task \
       only, bounding tracing overhead on Monte-Carlo hot paths. Task 0 is \
       always sampled."
    in
    let env = Cmd.Env.info trace_sample_env_var in
    Arg.(value & opt int 64 & info [ "trace-sample" ] ~docv:"N" ~env ~doc)
  in
  let setup domains retries chaos chaos_seed chaos_io trace trace_sample =
    Option.iter Parallel.Pool.set_default domains;
    (match retries with
    | Some n when n < 1 -> die Cmd.Exit.cli_error "--retries must be at least 1"
    | Some n -> Parallel.Pool.set_max_attempts n
    | None -> ());
    (match trace with
    | None -> ()
    | Some path ->
        if trace_sample < 1 then
          die Cmd.Exit.cli_error "--trace-sample must be at least 1";
        Tracing.Tracer.start ~sample_every:trace_sample ();
        (* Exported at exit so every subcommand — including ones that
           exit through [die] — leaves a complete, crash-atomically
           written trace; the summary goes to stderr because stdout is
           golden-tested byte-for-byte. *)
        at_exit (fun () ->
            match Tracing.Tracer.finish () with
            | None -> ()
            | Some dump ->
                (try
                   Report.Csv.write_file ~path
                     (Tracing.Export.chrome_json dump)
                 with Sys_error message ->
                   Printf.eprintf "rexspeed: trace: %s\n%!" message);
                prerr_string (Tracing.Export.summary dump)));
    (match (chaos, chaos_seed) with
    | Some p, seed -> begin
        match
          Resilience.Chaos.configure ~p ~seed:(Option.value seed ~default:0)
        with
        | Ok () -> ()
        | Error message -> die Cmd.Exit.cli_error message
      end
    | None, Some _ -> die Cmd.Exit.cli_error "--chaos-seed requires --chaos"
    | None, None -> begin
        match Resilience.Chaos.of_env () with
        | Ok () -> ()
        | Error message -> die Cmd.Exit.cli_error message
      end);
    match chaos_io with
    | Some spec -> begin
        match
          Result.bind (Resilience.Chaos.io_of_spec spec)
            Resilience.Chaos.configure_io
        with
        | Ok () -> ()
        | Error message -> die Cmd.Exit.cli_error ("--chaos-io: " ^ message)
      end
    | None -> begin
        match Resilience.Chaos.of_io_env () with
        | Ok () -> ()
        | Error message -> die Cmd.Exit.cli_error message
      end
  in
  Term.(
    const setup $ domains $ retries $ chaos $ chaos_seed $ chaos_io $ trace
    $ trace_sample)

(* Evaluates [runtime_setup] (left argument, so before the command's own
   [run] fires) and passes the command's exit code through. *)
let with_domains term = Term.(const (fun () code -> code) $ runtime_setup $ term)

(* --journal/--resume for the long-running commands. The pair is
   turned into a {!Resilience.Checkpointed.journal} by [journal_of]
   once the command knows its fingerprint description. *)
let journal_args =
  let journal =
    let doc =
      "Checkpoint completed work into a verified journal at $(docv) \
       (created or truncated unless $(b,--resume) is given). Every record \
       is checksummed and the header fingerprints the exact run, so \
       progress survives crashes and can never be resumed into a different \
       computation."
    in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"PATH" ~doc)
  in
  let resume =
    let doc =
      "Resume from the journal: verified records are recovered, a torn or \
       corrupted tail is discarded, and only the missing work is \
       recomputed — output is bit-identical to an uninterrupted run. A \
       missing journal file starts a fresh run."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let make path resume =
    match (path, resume) with
    | None, true -> die Cmd.Exit.cli_error "--resume requires --journal"
    | None, false -> None
    | Some path, resume -> Some (path, resume)
  in
  Term.(const make $ journal $ resume)

let journal_of ~description =
  Option.map (fun (path, resume) ->
      { Resilience.Checkpointed.path; resume; description; durable = true })

(* Resume/progress notes go to stderr: stdout must stay byte-identical
   between resumed and uninterrupted runs. *)
let resume_note ~entries ~dropped =
  Printf.eprintf "rexspeed: journal resume: %d slot(s) recovered%s\n%!" entries
    (if dropped then "; corrupted tail discarded" else "")

let env_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "env-file" ] ~docv:"FILE"
        ~doc:"Load a custom machine from a key = value file (keys: lambda, \
              c, r, v, kappa, p_idle, p_io, speeds) instead of a built-in \
              configuration.")

let optimize_cmd =
  let single =
    Arg.(
      value & flag
      & info [ "single-speed" ]
          ~doc:"Restrict the re-execution speed to the first speed.")
  in
  let run config rho single env_file jspec =
    guarded @@ fun () ->
    let env, name =
      match env_file with
      | None -> (Core.Env.of_config config, Platforms.Config.name config)
      | Some path -> begin
          match Platforms.Config_file.load ~path with
          | Ok file -> (Core.Env.of_config_file file, path)
          | Error message ->
              die exit_config ("cannot load " ^ path ^ ": " ^ message)
        end
    in
    let mode =
      if single then Core.Bicrit.Single_speed else Core.Bicrit.Two_speeds
    in
    let journal =
      journal_of jspec
        ~description:
          (Printf.sprintf "optimize config=%s rho=%g mode=%s" name rho
             (if single then "single-speed" else "two-speeds"))
    in
    let r =
      Server.Render.optimize ~mode ?journal ~on_resume:resume_note ~env ~name
        ~rho ()
    in
    print_string r.output;
    if r.ok then 0 else exit_infeasible
  in
  let term =
    with_domains
      Term.(
        const run $ config_arg $ rho_arg $ single $ env_file_arg
        $ journal_args)
  in
  Cmd.v
    (cmd_info "optimize"
       ~doc:"Solve one BiCrit instance (Theorem 1 + O(K^2) search).")
    term

let tables_cmd =
  let run () =
    let env =
      Core.Env.of_config (Option.get (Platforms.Config.find "hera/xscale"))
    in
    let ok = ref true in
    List.iter
      (fun reference ->
        let measured =
          Experiments.Tables42.compute env ~rho:reference.Experiments.Tables42.rho
        in
        print_string (Experiments.Tables42.render measured);
        let entries = Experiments.Tables42.compare env reference in
        if not (Report.Compare.all_ok entries) then begin
          ok := false;
          List.iter
            (fun e -> Format.printf "  %a@." Report.Compare.pp_entry e)
            (List.filter
               (fun (e : Report.Compare.entry) ->
                 match e.verdict with
                 | Report.Compare.Deviates _ -> true
                 | Report.Compare.Exact | Report.Compare.Shape _ -> false)
               entries)
        end;
        print_newline ())
      Experiments.Tables42.paper;
    if !ok then begin
      print_endline "all four Section 4.2 tables reproduce the paper exactly.";
      0
    end
    else 1
  in
  Cmd.v
    (cmd_info "tables" ~doc:"Regenerate the four Section 4.2 tables and diff against the paper.")
    (with_domains Term.(const run $ const ()))

let figure_cmd =
  let id =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"FIGURE" ~doc:"Paper figure number (2-14).")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"DIR"
          ~doc:"Write gnuplot .dat/.gp files into DIR instead of printing.")
  in
  let chart =
    Arg.(
      value & flag
      & info [ "chart" ]
          ~doc:"Render an ASCII chart of the energy overheads instead of the \
                numeric table.")
  in
  let run id points output chart =
    match Experiments.Figures.find id with
    | None -> die Cmd.Exit.cli_error "figure number must be between 2 and 14"
    | Some figure ->
        let panels = Experiments.Figures.run ?points figure in
        List.iter
          (fun (series : Sweep.Series.t) ->
            let rows = Sweep.Series.to_rows series in
            match output with
            | None when chart ->
                let project f = Sweep.Shape.project series f in
                print_string
                  (Report.Chart.render
                     ~logx:(series.parameter = Sweep.Parameter.Lambda)
                     ~title:
                       (Printf.sprintf
                          "Fig %d %s: energy overhead (mW) vs %s (rho=%g)" id
                          series.label
                          (Sweep.Parameter.name series.parameter)
                          series.rho)
                     [
                       {
                         Report.Chart.label = "two speeds";
                         points = project Sweep.Shape.two_speed_energy;
                         glyph = '*';
                       };
                       {
                         Report.Chart.label = "single speed";
                         points = project Sweep.Shape.single_speed_energy;
                         glyph = '+';
                       };
                     ]);
                print_newline ()
            | None ->
                Printf.printf "# Figure %d, %s vs %s (rho=%g)\n" id
                  series.label
                  (Sweep.Parameter.name series.parameter)
                  series.rho;
                let table =
                  Report.Table.create ~header:Sweep.Series.column_names ()
                in
                List.iter
                  (fun row ->
                    Report.Table.add_float_row ~precision:5 table
                      (Array.to_list row))
                  rows;
                Report.Table.print table;
                Printf.printf "max saving along this panel: %.1f%%\n\n"
                  (100. *. Sweep.Series.max_saving series)
            | Some dir ->
                let base =
                  Printf.sprintf "%s/fig%02d_%s" dir id
                    (Sweep.Parameter.name series.parameter)
                in
                let dat = base ^ ".dat" in
                Report.Gnuplot.write_file ~path:dat
                  (Report.Gnuplot.data_block
                     ~comment:
                       (Printf.sprintf "Figure %d: %s vs %s" id series.label
                          (Sweep.Parameter.name series.parameter))
                     ~columns:Sweep.Series.column_names ~rows ());
                Report.Gnuplot.write_file ~path:(base ^ ".gp")
                  (Report.Gnuplot.script ~output:(base ^ ".png")
                     ~title:
                       (Printf.sprintf "Fig %d %s: energy overhead vs %s" id
                          series.label
                          (Sweep.Parameter.name series.parameter))
                     ~xlabel:(Sweep.Parameter.name series.parameter)
                     ~ylabel:"energy overhead (mW)"
                     ~logx:(series.parameter = Sweep.Parameter.Lambda)
                     ~data_file:dat
                     ~series:[ (5, "two speeds"); (9, "single speed") ]
                     ());
                Printf.printf "wrote %s and %s.gp\n" dat base)
          panels;
        0
  in
  Cmd.v
    (cmd_info "figure" ~doc:"Regenerate one paper figure (series dump or gnuplot files).")
    (with_domains Term.(const run $ id $ points_arg $ output $ chart))

let sweep_cmd =
  let param =
    let choices =
      List.map
        (fun p -> (String.lowercase_ascii (Sweep.Parameter.name p), p))
        Sweep.Parameter.all
    in
    Arg.(
      required
      & pos 0 (some (enum choices)) None
      & info [] ~docv:"PARAM" ~doc:"Swept parameter: C, V, lambda, rho, Pidle or Pio.")
  in
  let lo =
    Arg.(value & opt (some float) None & info [ "lo" ] ~docv:"LO" ~doc:"Axis start.")
  in
  let hi =
    Arg.(value & opt (some float) None & info [ "hi" ] ~docv:"HI" ~doc:"Axis end.")
  in
  let run config rho param points lo hi =
    let env = Core.Env.of_config config in
    let xs =
      match (lo, hi) with
      | Some lo, Some hi ->
          let n = Option.value points ~default:51 in
          if param = Sweep.Parameter.Lambda then
            Numerics.Axis.logspace ~lo ~hi ~n
          else Numerics.Axis.linspace ~lo ~hi ~n
      | None, None | Some _, None | None, Some _ ->
          Sweep.Parameter.paper_axis param ?points ()
    in
    let series =
      Sweep.Series.run ~label:(Platforms.Config.name config) ~env ~rho
        ~parameter:param ~xs ()
    in
    print_string
      (Report.Csv.of_float_rows ~header:Sweep.Series.column_names
         ~rows:(Sweep.Series.to_rows series));
    0
  in
  Cmd.v
    (cmd_info "sweep" ~doc:"Custom one-parameter sweep, CSV on stdout.")
    (with_domains
       Term.(const run $ config_arg $ rho_arg $ param $ points_arg $ lo $ hi))

let simulate_cmd =
  let replicas =
    Arg.(value & opt int 2000 & info [ "replicas" ] ~docv:"N" ~doc:"Monte-Carlo replicas.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let fraction =
    Arg.(
      value & opt float 0.
      & info [ "fail-stop-fraction" ] ~docv:"F"
          ~doc:"Fraction of errors that are fail-stop (Section 5).")
  in
  let scale =
    Arg.(
      value & opt float 200.
      & info [ "lambda-scale" ] ~docv:"X"
          ~doc:"Error-rate inflation so errors occur within the replica budget.")
  in
  let suite =
    Arg.(
      value & flag
      & info [ "suite" ]
          ~doc:
            "Run the full validation suite (every Table 3 configuration plus \
             the synthetic scenarios) instead of a single configuration; \
             $(b,--config), $(b,--fail-stop-fraction) and $(b,--lambda-scale) \
             are ignored.")
  in
  let run config replicas seed fraction scale suite jspec =
    guarded @@ fun () ->
    let scenarios =
      if suite then Experiments.Validation.default_suite ()
      else
        [
          Experiments.Validation.of_config ~fail_stop_fraction:fraction
            ~lambda_scale:scale config;
        ]
    in
    let journal =
      journal_of jspec
        ~description:
          (if suite then
             Printf.sprintf "simulate suite replicas=%d seed=%d" replicas seed
           else
             Printf.sprintf
               "simulate config=%s fail-stop-fraction=%g lambda-scale=%g \
                replicas=%d seed=%d"
               (Platforms.Config.name config)
               fraction scale replicas seed)
    in
    List.iter
      (fun (s : Experiments.Validation.scenario) ->
        Printf.printf
          "simulating %s: W=%.1f, (s1, s2)=(%g, %g), %d replicas, seed %d\n"
          s.name s.w s.sigma1 s.sigma2 replicas seed)
      scenarios;
    let checks =
      Experiments.Validation.run ~replicas ~seed ?journal
        ~on_resume:resume_note scenarios
    in
    List.iter (fun c -> Format.printf "%a@." Sim.Montecarlo.pp_check c) checks;
    if Experiments.Validation.all_ok checks then 0 else exit_infeasible
  in
  Cmd.v
    (cmd_info "simulate"
       ~doc:"Monte-Carlo cross-check of the analytical expectations.")
    (with_domains
       Term.(
         const run $ config_arg $ replicas $ seed $ fraction $ scale $ suite
         $ journal_args))

let theorem2_cmd =
  let run () =
    let r = Experiments.Theorem2.run () in
    let table =
      Report.Table.create
        ~header:[ "lambda"; "Wopt (s2=2s)"; "(12C/l^2)^(1/3) s"; "Wopt (s2=s)" ]
        ()
    in
    List.iter2
      (fun (l, w2) ((_, wa), (_, w1)) ->
        Report.Table.add_row table
          [
            Printf.sprintf "%.3g" l;
            Printf.sprintf "%.4g" w2;
            Printf.sprintf "%.4g" wa;
            Printf.sprintf "%.4g" w1;
          ])
      r.w_twice
      (List.combine r.w_analytic r.w_same);
    Report.Table.print table;
    Printf.printf
      "\nfitted exponents: sigma2=2sigma1 -> %.4f (Theorem 2 predicts %.4f); \
       sigma2=sigma1 -> %.4f (Young/Daly predicts %.4f)\n\
       max gap numeric vs closed form: %.2e\n"
      r.slope_twice Experiments.Theorem2.expected_slope_twice r.slope_same
      Experiments.Theorem2.expected_slope_same r.max_analytic_gap;
    0
  in
  Cmd.v
    (cmd_info "theorem2" ~doc:"Theta(lambda^(-2/3)) scaling experiment (Theorem 2).")
    (with_domains Term.(const run $ const ()))

let claims_cmd =
  let run points =
    let entries = Experiments.Claims.all ?points () in
    List.iter (fun e -> Format.printf "%a@." Report.Compare.pp_entry e) entries;
    if Report.Compare.all_ok entries then begin
      print_endline "\nall qualitative claims of Section 4.3 reproduce.";
      0
    end
    else 1
  in
  Cmd.v
    (cmd_info "claims" ~doc:"Check every qualitative claim of Section 4.3.")
    (with_domains Term.(const run $ points_arg))

let ablation_cmd =
  let run rho =
    print_string
      (Experiments.Ablations.render
         ~title:
           (Printf.sprintf
              "Ablation 1: discrete Table-2 ladder vs continuous DVFS (rho = %g)"
              rho)
         (Experiments.Ablations.discrete_ladder ~rho ()));
    print_newline ();
    print_string
      (Experiments.Ablations.render
         ~title:
           "Ablation 2: paper's first-order period vs numerically exact optimum"
         (Experiments.Ablations.first_order_optimizer ~rho ()));
    print_newline ();
    print_string
      (Experiments.Ablations.render
         ~title:"Ablation 3: verification cost (paper V vs free verification)"
         (Experiments.Ablations.verification_cost ~rho ()));
    0
  in
  Cmd.v
    (cmd_info "ablation"
       ~doc:"Quantify the paper's design choices: speed discreteness, \
             first-order optimization, verification cost.")
    (with_domains Term.(const run $ rho_arg))

let sensitivity_cmd =
  let run config rho =
    let env = Core.Env.of_config config in
    match Core.Bicrit.solve env ~rho with
    | None ->
        die exit_infeasible
          (Printf.sprintf "no feasible speed pair for rho = %g" rho)
    | Some { best; _ } ->
        let sigma1 = best.Core.Optimum.sigma1 in
        let sigma2 = best.Core.Optimum.sigma2 in
        Printf.printf
          "elasticities at the %s optimum (pair (%g, %g), rho = %g):\n\
           a +1%% change in each parameter moves We / the minimum energy \
           overhead by:\n\n"
          (Platforms.Config.name config)
          sigma1 sigma2 rho;
        let table =
          Report.Table.create
            ~header:[ "parameter"; "value"; "dWe (%)"; "dE/W (%)" ]
            ()
        in
        List.iter
          (fun (param, (g : Core.Sensitivity.gradient)) ->
            Report.Table.add_row table
              [
                Core.Sensitivity.parameter_name param;
                Printf.sprintf "%.4g"
                  (Core.Sensitivity.parameter_value env.params env.power param);
                Printf.sprintf "%+.4f" g.d_w_energy;
                Printf.sprintf "%+.4f" g.d_min_energy;
              ])
          (Core.Sensitivity.all_elasticities env.params env.power ~sigma1
             ~sigma2);
        Report.Table.print table;
        print_endline
          "\n(We's lambda elasticity is exactly -1/2: the Young/Daly square \
           root. R never moves We — it is absent from Eq. 5.)";
        0
  in
  Cmd.v
    (cmd_info "sensitivity"
       ~doc:"Closed-form parameter elasticities of the optimal pattern.")
    (with_domains Term.(const run $ config_arg $ rho_arg))

let evaluate_cmd =
  let w_arg =
    Arg.(
      required
      & opt (some float) None
      & info [ "w" ] ~docv:"W" ~doc:"Pattern size, work units.")
  in
  let sigma1_arg =
    Arg.(
      required
      & opt (some float) None
      & info [ "s1" ] ~docv:"SIGMA1" ~doc:"First-execution speed.")
  in
  let sigma2_arg =
    Arg.(
      required
      & opt (some float) None
      & info [ "s2" ] ~docv:"SIGMA2" ~doc:"Re-execution speed.")
  in
  let replicas_arg =
    Arg.(
      value & opt int 0
      & info [ "replicas" ] ~docv:"N"
          ~doc:"Also Monte-Carlo the pattern with N replicas (0 = skip).")
  in
  let run config env_file w sigma1 sigma2 replicas =
    let env =
      match env_file with
      | None -> Core.Env.of_config config
      | Some path -> begin
          match Platforms.Config_file.load ~path with
          | Ok file -> Core.Env.of_config_file file
          | Error message ->
              die exit_config ("cannot load " ^ path ^ ": " ^ message)
        end
    in
    let r = Server.Render.evaluate ~env ~w ~sigma1 ~sigma2 ~replicas () in
    print_string r.output;
    0
  in
  Cmd.v
    (cmd_info "evaluate"
       ~doc:"Evaluate one pattern (W, sigma1, sigma2) under the first-order, \
             exact, distributional and simulated models.")
    (with_domains
       Term.(
         const run $ config_arg $ env_file_arg $ w_arg $ sigma1_arg
         $ sigma2_arg $ replicas_arg))

let heatmap_cmd =
  let param_pos k docv =
    let choices =
      List.map
        (fun p -> (String.lowercase_ascii (Sweep.Parameter.name p), p))
        Sweep.Parameter.all
    in
    Arg.(
      required
      & pos k (some (enum choices)) None
      & info [] ~docv ~doc:"Axis parameter (C, V, lambda, rho, Pidle, Pio).")
  in
  let run config rho x_param y_param points jspec =
    guarded @@ fun () ->
    if x_param = y_param then die Cmd.Exit.cli_error "the two axes must differ"
    else begin
      let env = Core.Env.of_config config in
      let n = Option.value points ~default:40 in
      let axis p =
        ( p,
          match p with
          | Sweep.Parameter.Lambda ->
              Numerics.Axis.logspace ~lo:1e-6 ~hi:1e-3 ~n
          | Sweep.Parameter.Rho -> Numerics.Axis.linspace ~lo:1.1 ~hi:3.5 ~n
          | Sweep.Parameter.C | Sweep.Parameter.V ->
              Numerics.Axis.linspace ~lo:50. ~hi:5000. ~n
          | Sweep.Parameter.P_idle | Sweep.Parameter.P_io ->
              Numerics.Axis.linspace ~lo:0. ~hi:5000. ~n )
      in
      let journal =
        journal_of jspec
          ~description:
            (Printf.sprintf "heatmap config=%s rho=%g x=%s y=%s points=%d"
               (Platforms.Config.name config)
               rho
               (Sweep.Parameter.name x_param)
               (Sweep.Parameter.name y_param)
               n)
      in
      let grid =
        Sweep.Grid2d.run
          ~label:
            (Printf.sprintf "%s two-speed saving"
               (Platforms.Config.name config))
          ?journal ~on_resume:resume_note ~env ~rho ~x:(axis x_param)
          ~y:(axis y_param) ()
      in
      print_string (Sweep.Grid2d.render_heatmap ~value:Sweep.Grid2d.saving grid);
      (match Sweep.Grid2d.max_saving grid with
      | Some (x, y, s) ->
          Printf.printf "max saving %.1f%% at %s=%.4g, %s=%.4g\n" (100. *. s)
            (Sweep.Parameter.name x_param) x
            (Sweep.Parameter.name y_param) y
      | None -> print_endline "no cell feasible in both modes");
      0
    end
  in
  Cmd.v
    (cmd_info "heatmap"
       ~doc:"Two-parameter grid of the two-speed saving (ASCII heatmap).")
    (with_domains
       Term.(
         const run $ config_arg $ rho_arg $ param_pos 0 "X" $ param_pos 1 "Y"
         $ points_arg $ journal_args))

let baselines_cmd =
  let run rho =
    Printf.printf
      "Related-work baselines (Section 6) at rho = %g\n\n\
       Meneses et al.: time-optimal vs energy-optimal single-speed periods\n"
      rho;
    print_string (Experiments.Baselines.render_meneses
                    (Experiments.Baselines.meneses ~rho ()));
    Printf.printf
      "\nAupy et al.: 'success after the first re-execution' truncation\n";
    print_string
      (Experiments.Baselines.render_truncation
         (Experiments.Baselines.single_reexecution ~rho ()));
    print_endline
      "\n(risk/30-day job = probability the truncated model's guarantee is \
       violated at least once during a month-long run)";
    0
  in
  Cmd.v
    (cmd_info "baselines"
       ~doc:"Compare against the Section 6 related-work models.")
    (with_domains Term.(const run $ rho_arg))

let report_cmd =
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the markdown report to FILE instead of stdout.")
  in
  let run points output =
    let buffer = Buffer.create 8192 in
    let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buffer (s ^ "\n")) fmt in
    add "# rexspeed reproduction report";
    add "";
    add "Auto-generated by `rexspeed report`; every value recomputed from";
    add "the model at report time.";
    add "";
    add "## Section 4.2 tables (Hera/XScale)";
    add "";
    let env =
      Core.Env.of_config (Option.get (Platforms.Config.find "hera/xscale"))
    in
    let entries =
      List.concat_map
        (fun (reference : Experiments.Tables42.table) ->
          Experiments.Tables42.compare env reference)
        Experiments.Tables42.paper
    in
    Buffer.add_string buffer (Report.Compare.render_markdown entries);
    add "";
    add "## Section 4.3 claims";
    add "";
    Buffer.add_string buffer
      (Report.Compare.render_markdown (Experiments.Claims.all ?points ()));
    add "";
    add "## Theorem 2 scaling";
    add "";
    let r = Experiments.Theorem2.run () in
    let t2 =
      Report.Table.create
        ~header:[ "lambda"; "numeric Wopt"; "(12C/l^2)^(1/3) s"; "Wopt (s2=s1)" ]
        ()
    in
    List.iter2
      (fun (l, w2) ((_, wa), (_, w1)) ->
        Report.Table.add_row t2
          [
            Printf.sprintf "%.3g" l; Printf.sprintf "%.5g" w2;
            Printf.sprintf "%.5g" wa; Printf.sprintf "%.5g" w1;
          ])
      r.Experiments.Theorem2.w_twice
      (List.combine r.Experiments.Theorem2.w_analytic
         r.Experiments.Theorem2.w_same);
    Buffer.add_string buffer (Report.Table.render_markdown t2);
    add "";
    add "Fitted exponents: %.4f with sigma2 = 2 sigma1 (Theorem 2: -2/3);"
      r.Experiments.Theorem2.slope_twice;
    add "%.4f with sigma2 = sigma1 (Young/Daly: -1/2)."
      r.Experiments.Theorem2.slope_same;
    add "";
    add "## Extensions";
    add "";
    add "Exact mixed-error BiCrit across the error mix (Hera/XScale, rho = 3):";
    add "";
    let mixed_table =
      Report.Table.create
        ~header:[ "f"; "sigma1"; "sigma2"; "Wopt"; "E/W (mW)" ]
        ()
    in
    List.iter
      (fun (p : Experiments.Extensions.mixed_point) ->
        match p.solution with
        | Some s ->
            Report.Table.add_row mixed_table
              [
                Printf.sprintf "%.1f" p.fraction;
                Printf.sprintf "%g" s.Core.Mixed_bicrit.sigma1;
                Printf.sprintf "%g" s.sigma2;
                Printf.sprintf "%.0f" s.w_opt;
                Printf.sprintf "%.1f" s.energy_overhead;
              ]
        | None ->
            Report.Table.add_row mixed_table
              [ Printf.sprintf "%.1f" p.fraction; "-"; "-"; "-"; "-" ])
      (Experiments.Extensions.fraction_sweep ());
    Buffer.add_string buffer (Report.Table.render_markdown mixed_table);
    let document = Buffer.contents buffer in
    (match output with
    | None -> print_string document
    | Some path ->
        Report.Csv.write_file ~path document;
        Printf.printf "wrote %s (%d bytes)\n" path (String.length document));
    0
  in
  Cmd.v
    (cmd_info "report"
       ~doc:"Generate the full markdown reproduction report (EXPERIMENTS-style).")
    (with_domains Term.(const run $ points_arg $ output))

let frontier_cmd =
  let run config jspec =
    guarded @@ fun () ->
    let name = Platforms.Config.name config in
    let env = Core.Env.of_config config in
    let journal =
      journal_of jspec ~description:(Printf.sprintf "frontier config=%s" name)
    in
    let r =
      Server.Render.frontier ?journal ~on_resume:resume_note ~env ~name ()
    in
    print_string r.output;
    0
  in
  Cmd.v
    (cmd_info "frontier"
       ~doc:"Time/energy Pareto frontier across performance bounds.")
    (with_domains Term.(const run $ config_arg $ journal_args))

let mixed_cmd =
  let run config rho =
    let name = Platforms.Config.name config in
    Printf.printf
      "exact mixed-error BiCrit on %s (rho = %g) — beyond the paper's \
       first-order validity window\n\n"
      name rho;
    let table =
      Report.Table.create
        ~header:
          [ "fail-stop fraction"; "sigma1"; "sigma2"; "Wopt"; "E/W (mW)";
            "T/W" ]
        ()
    in
    List.iter
      (fun (p : Experiments.Extensions.mixed_point) ->
        match p.solution with
        | None ->
            Report.Table.add_row table
              [ Printf.sprintf "%.1f" p.fraction; "-"; "-"; "-"; "-"; "-" ]
        | Some s ->
            Report.Table.add_row table
              [
                Printf.sprintf "%.1f" p.fraction;
                Printf.sprintf "%g" s.Core.Mixed_bicrit.sigma1;
                Printf.sprintf "%g" s.sigma2;
                Printf.sprintf "%.0f" s.w_opt;
                Printf.sprintf "%.1f" s.energy_overhead;
                Printf.sprintf "%.4f" s.time_overhead;
              ])
      (Experiments.Extensions.fraction_sweep
         ~config:(String.lowercase_ascii name) ~rho ());
    Report.Table.print table;
    let solved, outside =
      Experiments.Extensions.coverage_beyond_validity
        ~config:(String.lowercase_ascii name) ~rho ~fraction:0.5 ()
    in
    Printf.printf
      "\nspeed pairs outside the paper's first-order validity window (f = \
       0.5): %d, of which the exact solver handles %d\n"
      outside solved;
    0
  in
  Cmd.v
    (cmd_info "mixed"
       ~doc:"Exact BiCrit with both error sources across the error mix (extension).")
    (with_domains Term.(const run $ config_arg $ rho_arg))

let verif_cmd =
  let scale =
    Arg.(
      value & opt float 100.
      & info [ "lambda-scale" ] ~docv:"X"
          ~doc:"Error-rate inflation (intermediate verifications pay off at \
                high rates).")
  in
  let run config rho scale =
    let name = String.lowercase_ascii (Platforms.Config.name config) in
    Printf.printf
      "multi-verification patterns on %s (rho = %g, lambda x%g)\n\n"
      (Platforms.Config.name config)
      rho scale;
    let table =
      Report.Table.create
        ~header:
          [ "verifications"; "sigma1"; "sigma2"; "Wopt"; "E/W (mW)"; "T/W" ]
        ()
    in
    List.iter
      (fun (p : Experiments.Extensions.verif_point) ->
        match p.solution with
        | None ->
            Report.Table.add_row table
              [ string_of_int p.verifications; "-"; "-"; "-"; "-"; "-" ]
        | Some s ->
            Report.Table.add_row table
              [
                string_of_int p.verifications;
                Printf.sprintf "%g" s.Core.Multi_verif.sigma1;
                Printf.sprintf "%g" s.sigma2;
                Printf.sprintf "%.0f" s.w_opt;
                Printf.sprintf "%.2f" s.energy_overhead;
                Printf.sprintf "%.4f" s.time_overhead;
              ])
      (Experiments.Extensions.verification_sweep ~config:name ~rho
         ~lambda_scale:scale ());
    Report.Table.print table;
    Printf.printf "\nbest verification count: %d\n"
      (Experiments.Extensions.best_verification_count ~config:name ~rho
         ~lambda_scale:scale ());
    0
  in
  Cmd.v
    (cmd_info "verif"
       ~doc:"Patterns with m intermediate verifications per checkpoint (extension).")
    (with_domains Term.(const run $ config_arg $ rho_arg $ scale))

let serve_cmd =
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Accept TCP connections on 127.0.0.1:$(docv).")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Accept connections on a Unix-domain socket at $(docv) (a stale \
             socket file is replaced). At least one of $(b,--port) and \
             $(b,--socket) is required.")
  in
  let cache_entries =
    Arg.(
      value & opt int 256
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:
            "Capacity of the LRU result cache, in entries; 0 disables \
             caching. Cached answers are the stored bytes of the first \
             computation, so hits are byte-identical to misses.")
  in
  let max_request_bytes =
    Arg.(
      value
      & opt int (1024 * 1024)
      & info [ "max-request-bytes" ] ~docv:"BYTES"
          ~doc:
            "Reject request lines longer than $(docv) with a structured \
             $(i,too-large) error instead of buffering them.")
  in
  let max_inflight =
    Arg.(
      value & opt int 64
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Maximum requests dispatched to the worker pool per round; \
             excess pipelined requests wait in order.")
  in
  let log_every =
    Arg.(
      value & opt int 0
      & info [ "log-every" ] ~docv:"N"
          ~doc:
            "Log a stats line (requests, req/s, cache hit rate, p99) to \
             stderr every $(docv) completed requests; 0 disables.")
  in
  let deadline_ms =
    let env = Cmd.Env.info "REXSPEED_DEADLINE_MS" in
    Arg.(
      value & opt int 0
      & info [ "deadline-ms" ] ~docv:"MS" ~env
          ~doc:
            "Per-request compute deadline: a request still queued past \
             $(docv) milliseconds, or whose computation finishes past it, is \
             answered with a structured $(i,deadline_exceeded) error instead \
             of a late result. 0 disables.")
  in
  let io_timeout_ms =
    let env = Cmd.Env.info "REXSPEED_IO_TIMEOUT_MS" in
    Arg.(
      value & opt int 30_000
      & info [ "io-timeout-ms" ] ~docv:"MS" ~env
          ~doc:
            "Socket read/write timeout: a response that cannot be written \
             within $(docv) milliseconds drops the connection, as does a \
             connection stalled mid-request for longer (slow-client \
             protection). 0 waits forever.")
  in
  let max_queue =
    let env = Cmd.Env.info "REXSPEED_MAX_QUEUE" in
    Arg.(
      value & opt int 0
      & info [ "max-queue" ] ~docv:"N" ~env
          ~doc:
            "Bound the admission queue at $(docv) requests; the overflow is \
             shed immediately with a structured $(i,shed) error carrying a \
             $(i,retry_after_ms) hint. 0 means unbounded.")
  in
  let verify_sample =
    let env = Cmd.Env.info "REXSPEED_VERIFY_SAMPLE" in
    Arg.(
      value & opt int 0
      & info [ "verify-sample" ] ~docv:"N" ~env
          ~doc:
            "Verified re-execution: recompute every $(docv)-th computed \
             cache miss and compare response fingerprints before committing \
             the response; a mismatch counts as a $(i,verify.divergence) and \
             triggers one authoritative re-execution. 0 disables.")
  in
  let shards =
    let env = Cmd.Env.info "REXSPEED_SHARDS" in
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N" ~env
          ~doc:
            "Shard the daemon across $(docv) worker processes behind a \
             consistent-hash router: each request is routed by its \
             fingerprint to one shared-nothing worker (own cache, own \
             pool), $(i,health)/$(i,stats) aggregate fleet-wide, and a \
             dead worker is respawned with its in-flight requests \
             replayed. 1 keeps the single-process daemon.")
  in
  let shard_spawn_timeout_ms =
    Arg.(
      value & opt int 10_000
      & info
          [ "shard-spawn-timeout-ms" ]
          ~docv:"MS"
          ~doc:
            "How long a spawned shard worker may take to accept \
             connections — at startup and on failover respawn — before \
             the router gives up on it.")
  in
  let run port socket cache_entries max_request_bytes max_inflight log_every
      deadline_ms io_timeout_ms max_queue verify_sample shards
      shard_spawn_timeout_ms =
    (* SIGINT/SIGTERM drain the server. The handlers are in place before
       anything starts, so a signal that lands while a fleet is still
       spawning its workers drains it too instead of orphaning them. *)
    let stop = Atomic.make false in
    let request_stop = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
    Sys.set_signal Sys.sigterm request_stop;
    Sys.set_signal Sys.sigint request_stop;
    let daemon =
      {
        Server.Daemon.port;
        socket_path = socket;
        cache_entries;
        max_request_bytes;
        max_inflight;
        log_every;
        deadline_ms;
        io_timeout_ms;
        max_queue;
        verify_sample;
      }
    in
    (* Every worker is this same binary running a single-process
       [serve] on a private socket; the router forwards the tuning
       flags verbatim (the line limit it sets itself, with room for the
       id it splices in) and pins the resolved domain count so workers
       do not re-read REXSPEED_DOMAINS differently. REXSPEED_SHARDS itself
       is stripped from the worker environment by the supervisor, so a
       worker can never recurse into a router. *)
    let router =
      {
        Server.Router.port;
        socket_path = socket;
        shards;
        spawn_timeout_ms = shard_spawn_timeout_ms;
        max_request_bytes;
        worker_exe = Sys.executable_name;
        worker_args =
          [
            ("--cache-entries", cache_entries);
            ("--max-inflight", max_inflight);
            ("--log-every", log_every);
            ("--deadline-ms", deadline_ms);
            ("--io-timeout-ms", io_timeout_ms);
            ("--max-queue", max_queue);
            ("--verify-sample", verify_sample);
            ("--domains", Parallel.Pool.(domains (default ())));
          ]
          |> List.concat_map (fun (flag, v) -> [ flag; string_of_int v ]);
      }
    in
    (* Options are checked where they are used, before anything starts:
       the workers of a sharded fleet get the daemon's options. *)
    let checked =
      Result.bind (Server.Daemon.validate daemon) (fun () ->
          if shards = 1 then Ok () else Server.Router.validate router)
    in
    let served =
      match checked with
      | Error message -> die Cmd.Exit.cli_error message
      | Ok () when shards = 1 -> Server.Daemon.run ~stop daemon
      | Ok () -> Server.Router.run ~stop router
    in
    match served with Ok () -> 0 | Error message -> die exit_config message
  in
  Cmd.v
    (cmd_info "serve"
       ~doc:
         "Serve optimize/frontier/evaluate queries over TCP or a Unix \
          socket: newline-delimited JSON in and out, an LRU result cache \
          keyed by the request fingerprint, live $(i,stats)/$(i,health) \
          routes, and graceful drain on SIGINT/SIGTERM. Hardened for \
          adversarial conditions: request deadlines ($(b,--deadline-ms)), \
          socket timeouts ($(b,--io-timeout-ms)), load shedding \
          ($(b,--max-queue)), supervised worker restarts, and verified \
          re-execution of sampled requests ($(b,--verify-sample)). With \
          $(b,--shards) N > 1, scales out across N shared-nothing worker \
          processes behind a consistent-hash router with automatic \
          failover. Answers are byte-identical to the one-shot \
          subcommands for any $(b,--domains) and any shard count.")
    (with_domains
       Term.(
         const run $ port $ socket $ cache_entries $ max_request_bytes
         $ max_inflight $ log_every $ deadline_ms $ io_timeout_ms $ max_queue
         $ verify_sample $ shards $ shard_spawn_timeout_ms))

let main =
  let doc =
    "reproduction of 'A different re-execution speed can help' (Benoit et \
     al., 2016)"
  in
  Cmd.group
    (Cmd.info "rexspeed" ~version:Server.Version.current ~doc ~exits ~envs)
    [
      optimize_cmd; tables_cmd; figure_cmd; sweep_cmd; simulate_cmd;
      theorem2_cmd; claims_cmd; mixed_cmd; verif_cmd; frontier_cmd; report_cmd;
      ablation_cmd; baselines_cmd; heatmap_cmd; evaluate_cmd; sensitivity_cmd;
      serve_cmd;
    ]

let () = exit (Cmd.eval' main)
