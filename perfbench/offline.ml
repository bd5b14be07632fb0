(* The offline workload: the paper's execution model run in-process at
   one domain, with no server. A cycle runs four phases on fixed work:
   a plain Monte-Carlo estimate, the same estimate with a run journal,
   a resume of that journal torn at half, and a grid sweep. The journal
   is on in phases 2 and 3 only. *)

open Outcome

let replicas = 4096  (* per Monte-Carlo phase *)
let nx = 60 and ny = 80  (* sweep cells per phase: nx * ny *)
let setups = 15

let model = Core.Mixed.make ~c:300. ~r:300. ~v:15.4 ~lambda_f:0. ~lambda_s:1.69e-4 ()
let power = Core.Power.make ~kappa:1550. ~p_idle:60. ~p_io:5.2
let w = 2764. and sigma = 0.4
let rho = 3.

let env () =
  match Platforms.Config.find "hera/xscale" with
  | Some c -> Core.Env.of_config c
  | None -> failwith "no hera/xscale configuration"

let estimate ?journal ~replicas ~seed pool =
  Sim.Montecarlo.pattern_estimate ~pool ?journal ~replicas ~seed ~model ~power ~w ~sigma1:sigma
    ~sigma2:sigma ()

let time f =
  let t0 = Stats.now () in
  let v = f () in
  (v, Stats.now () -. t0)

(* Cut the file at half its bytes: the record there is torn, and the
   journal recovers the records before it, whatever their format. *)
let tear path =
  let size = (Unix.stat path).Unix.st_size in
  Unix.truncate path (size / 2)

type cycle = {
  plain : float;
  journaled : float;
  resumed : float;
  sweep : float;
  slowdown : float;  (** [Calib.bracket]'s, set by the loop that runs the cycle *)
}

let cells = float_of_int (nx * ny)

let sweep (inputs : Gen.offline) pool =
  Sweep.Grid2d.run ~label:"perfbench" ~pool ~env:(env ()) ~rho
    ~x:(Sweep.Parameter.C, inputs.c_axis) ~y:(Sweep.Parameter.Lambda, inputs.lambda_axis) ()

(* durable = false: fsync per batch would measure the disk; its cost is
   the journal.fsync_us layer metric. *)
let journal (ctx : Ctx.t) resume =
  {
    Resilience.Checkpointed.path = Filename.concat ctx.dir "mc.journal";
    resume;
    description = "perfbench mc";
    durable = false;
  }

(* Batch flushes of one journaled estimate, from the program's tracer. *)
let journal_flushes ctx ~seed pool =
  Tracing.Tracer.start ();
  ignore (estimate ~journal:(journal ctx false) ~replicas ~seed pool);
  match Tracing.Tracer.finish () with
  | Some dump -> float_of_int (List.assoc Tracing.Span.Journal_flushes dump.counters)
  | None -> nan

(* The offline layers' costs, from the inputs the offline cycles use. *)
let layers (ctx : Ctx.t) =
  let inputs = Gen.offline ~seed:ctx.seed ~nx ~ny in
  let seed = inputs.mc_seed in
  let pool = Parallel.Pool.sequential in
  let spans = ctx.spans in
  let sweep_s = Stats.median (Array.init 3 (fun _ -> snd (time (fun () -> sweep inputs pool)))) in
  let split_us =
    Layers.per_call spans ~name:"prng.split" [| () |] (fun () ->
        Prng.Rng.split (Prng.Rng.create ~seed) replicas)
    /. float_of_int replicas
  in
  let rngs = Prng.Rng.split (Prng.Rng.create ~seed) replicas in
  let pattern_us =
    Layers.per_call spans ~name:"sim.pattern" rngs (fun rng ->
        Sim.Executor.run_pattern ~model ~machine:(Sim.Machine.create power) ~rng ~w ~sigma1:sigma
          ~sigma2:sigma ())
  in
  (* The journal's own layer, fed the records this workload writes:
     one marshalled replica outcome per slot, flushed in batches of
     64 as the checkpointed runner does. *)
  let payloads =
    Array.map
      (fun o -> Marshal.to_string (o : Sim.Executor.pattern_outcome) [])
      (Sim.Montecarlo.replicate ~pool ~replicas ~seed (fun rng ->
           Sim.Executor.run_pattern ~model ~machine:(Sim.Machine.create power) ~rng ~w
             ~sigma1:sigma ~sigma2:sigma ()))
  in
  let jpath = Filename.concat ctx.dir "replay.journal" and description = "perfbench replay" in
  let open_writer ~sync =
    match Resilience.Journal.create ~sync ~path:jpath ~description () with
    | Ok wr -> wr
    | Error e -> failwith e
  in
  let header_bytes =
    Resilience.Journal.close (open_writer ~sync:false);
    (Unix.stat jpath).st_size
  in
  let writer = ref (open_writer ~sync:false) in
  let append_us =
    Layers.per_call spans ~name:"journal.append"
      ~prepare:(fun () ->
        Resilience.Journal.close !writer;
        writer := open_writer ~sync:false)
      (Array.mapi (fun i p -> (i, p)) payloads)
      (fun (index, payload) -> Resilience.Journal.append !writer ~index ~payload)
  in
  Resilience.Journal.close !writer;
  let batch_flushes ~sync ~batches =
    let wr = open_writer ~sync in
    let t =
      Array.init batches (fun b ->
          for i = b * 64 to (b * 64) + 63 do
            Resilience.Journal.append wr ~index:i ~payload:payloads.(i)
          done;
          Spans.time spans ~name:(if sync then "journal.fsync" else "journal.flush") ~id:b (fun () ->
              snd (time (fun () -> Resilience.Journal.flush wr))))
    in
    Resilience.Journal.close wr;
    1e6 *. Stats.median t
  in
  let flush_us = batch_flushes ~sync:false ~batches:(replicas / 64) in
  let fsync_us = batch_flushes ~sync:true ~batches:16 in
  let full = open_writer ~sync:false in
  Array.iteri (fun index payload -> Resilience.Journal.append full ~index ~payload) payloads;
  Resilience.Journal.flush full;
  Resilience.Journal.close full;
  let bytes_per_record = float_of_int ((Unix.stat jpath).st_size - header_bytes) /. float_of_int replicas in
  let read_us =
    Layers.per_call spans ~name:"journal.read" [| () |] (fun () ->
        match Resilience.Journal.read ~path:jpath ~description ~slots:replicas with
        | Ok r -> r.entries
        | Error e -> failwith e)
    /. float_of_int replicas
  in
  (* Every 16th cell of the sweep, solved in both modes. *)
  let solves =
    let cs = Array.of_list inputs.c_axis and ls = Array.of_list inputs.lambda_axis in
    List.concat
      (List.init (nx * ny / 16) (fun k ->
           let e, r = Sweep.Parameter.apply Sweep.Parameter.C ~env:(env ()) ~rho cs.(16 * k mod nx) in
           let e, r = Sweep.Parameter.apply Sweep.Parameter.Lambda ~env:e ~rho:r ls.(16 * k / nx) in
           [ (e, r, Core.Bicrit.Two_speeds); (e, r, Core.Bicrit.Single_speed) ]))
  in
  let solve_us =
    Layers.per_call spans ~name:"core.solve" (Array.of_list solves) (fun (env, rho, mode) ->
        Core.Bicrit.solve ~mode env ~rho)
  in
  Layers.pool spans
  @ [
      ("core.solve_us", solve_us);
      ("prng.split_us", split_us);
        ("sim.pattern_us", pattern_us);
      ("journal.append_us", append_us);
      ("journal.flush_us", flush_us);
      ("journal.fsync_us", fsync_us);
      ("journal.read_us", read_us);
      ("journal.bytes_per_record", bytes_per_record);
      ("journal.flushes", journal_flushes ctx ~seed pool);
      ("sweep.cell_us", 1e6 *. sweep_s /. cells);
    ]

(* The offline layers, measured for a traced run of another workload. *)
let probe ctx =
  { Outcome.metrics = layers ctx; meta = [ ("replicas", Int replicas); ("cells", Int (nx * ny)) ] }

let run (ctx : Ctx.t) =
  let inputs = Gen.offline ~seed:ctx.seed ~nx ~ny in
  let seed = inputs.mc_seed in
  let pool = Parallel.Pool.sequential in
  let sweep = sweep inputs and journal = journal ctx in
  let path = (journal false).Resilience.Checkpointed.path in
  (* Warm-up: a short estimate and a small sweep, timed [setups] times
     across the run. *)
  let small = Gen.offline ~seed:ctx.seed ~nx:30 ~ny:20 in
  let setup_samples = ref [] in
  let setup_slowdowns = ref [] in
  let warm_up () =
    let ((), s), slowdown =
      Calib.bracket @@ fun () ->
      time (fun () ->
          ignore (estimate ~replicas:2048 ~seed pool);
          ignore
            (Sweep.Grid2d.run ~label:"perfbench" ~pool ~env:(env ()) ~rho
               ~x:(Sweep.Parameter.C, small.c_axis) ~y:(Sweep.Parameter.Lambda, small.lambda_axis) ()))
    in
    setup_samples := s :: !setup_samples;
    setup_slowdowns := slowdown :: !setup_slowdowns
  in
  let between = Stats.spread ~times:setups ~seconds:ctx.seconds warm_up in
  between ();
  let reference = estimate ~replicas ~seed pool in
  let grid_reference = sweep pool in
  ignore
    (Ctx.check ctx
       (Oracle.identical grid_reference (sweep (Parallel.Pool.create ~domains:2)))
       ~what:"2-domain grid differs from 1-domain grid");
  let same what v ref_ = ignore (Ctx.check ctx (Oracle.identical ref_ v) ~what) in
  let span name f = if ctx.traced then Spans.time ctx.spans ~name ~id:0 f else f () in
  let program_trace = ref None in
  (* In a traced cycle the program's tracer records each phase. *)
  let phase ~traced name f =
    if not traced then time f
    else begin
      Tracing.Tracer.start ();
      let r = span name (fun () -> time f) in
      (match Tracing.Tracer.finish () with
      | Some dump -> if name = "offline.journaled" then program_trace := Some dump
      | None -> ());
      r
    end
  in
  let cycle ~traced =
    let plain, t_plain = phase ~traced "offline.plain" (fun () -> estimate ~replicas ~seed pool) in
    same "plain estimate differs between cycles" plain reference;
    let journaled, t_journaled =
      phase ~traced "offline.journaled" (fun () -> estimate ~journal:(journal false) ~replicas ~seed pool)
    in
    same "journaled estimate differs from plain" journaled reference;
    tear path;
    let resumed, t_resumed =
      phase ~traced "offline.resume" (fun () -> estimate ~journal:(journal true) ~replicas ~seed pool)
    in
    same "resumed estimate differs from plain" resumed reference;
    let g, t_sweep = phase ~traced "offline.sweep" (fun () -> sweep pool) in
    same "grid differs between cycles" g grid_reference;
    { plain = t_plain; journaled = t_journaled; resumed = t_resumed; sweep = t_sweep; slowdown = 1. }
  in
  (* Untraced and traced cycles alternate in a traced run. *)
  let untraced = ref [] and traced = ref [] in
  let t_end = Stats.now () +. ctx.seconds in
  let k = ref 0 in
  while Stats.now () < t_end || !k < 3 || (ctx.traced && !k mod 2 = 1) do
    let tr = ctx.traced && !k mod 2 = 1 in
    let c, slowdown = Calib.bracket (fun () -> cycle ~traced:tr) in
    let c = { c with slowdown } in
    if tr then traced := c :: !traced else untraced := c :: !untraced;
    between ();
    incr k
  done;
  let med f l = Stats.median_list (List.map f l) in
  let items = float_of_int (3 * replicas) +. cells in
  let plain = med (fun c -> c.plain) !untraced and journaled = med (fun c -> c.journaled) !untraced in
  let times f = List (List.rev_map (fun c -> Num (f c)) !untraced) in
  let meta =
    [
      ("cycles", Int !k);
      ("replicas", Int replicas);
      ("cells", Int (nx * ny));
      ( "cycle_s",
        Obj
          [
            ("plain", times (fun c -> c.plain));
            ("journaled", times (fun c -> c.journaled));
            ("resumed", times (fun c -> c.resumed));
            ("sweep", times (fun c -> c.sweep));
            ("slowdown", times (fun c -> c.slowdown));
          ] );
    ]
  in
  let phase_rates =
    Obj
      [
        ("mc_replicas_per_s", Num (float_of_int replicas /. plain));
        ("journaled_replicas_per_s", Num (float_of_int replicas /. journaled));
        ("resume_replicas_per_s", Num (float_of_int replicas /. med (fun c -> c.resumed) !untraced));
        ("sweep_cells_per_s", Num (cells /. med (fun c -> c.sweep) !untraced));
      ]
  in
  let meta = meta @ [ ("phase_rates", phase_rates) ] in
  if not ctx.traced then begin
    (* An operation is a replica of one of the three estimates or a grid
       cell; latency is what a caller waits for an estimate. *)
    let measured =
      [
        ( "ops_per_s",
          Stats.slow_rate (List.map (fun c -> items /. (c.plain +. c.journaled +. c.resumed +. c.sweep)) !untraced) );
        ("lat_p50_ms", 1e3 *. Stats.slow_time (List.map (fun c -> (c.plain +. c.journaled +. c.resumed) /. 3.) !untraced));
        ("setup_s", Stats.setup_time !setup_samples);
        ("peak_rss_mb", Client.vm_hwm_mb 0);
      ]
    in
    let slowdown = Calib.run_slowdown (List.map (fun c -> c.slowdown) !untraced @ !setup_slowdowns) in
    { Outcome.metrics = Calib.scale ~slowdown measured; meta = meta @ [ ("measured", metrics_json measured) ] }
  end
  else begin
    let l = layers ctx in
    let get name = List.assoc name l in
    let t_plain_traced = med (fun c -> c.plain) !traced in
    (* Time the timed layer calls do not account for: the journaled
       estimate and the sweep of the untraced cycles. *)
    let n = float_of_int replicas in
    let measured = 1e6 *. (journaled +. med (fun c -> c.sweep) !untraced) in
    let accounted =
      (n *. (get "prng.split_us" +. get "sim.pattern_us"))
      +. (cells *. 2. *. get "core.solve_us")
      +. (n *. get "journal.append_us")
      +. (get "journal.flushes" *. get "journal.flush_us")
    in
    Option.iter
      (fun dump ->
        Out_channel.with_open_bin (Filename.concat ctx.dir "program-trace.json") (fun oc ->
            output_string oc (Tracing.Export.chrome_json dump)))
      !program_trace;
    {
      Outcome.metrics =
        l
        @ [
            ("residual_frac", 1. -. (accounted /. measured));
            ("trace.overhead_frac", (t_plain_traced -. plain) /. plain);
          ];
      meta;
    }
  end
