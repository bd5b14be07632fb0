type rendering = { output : string; ok : bool }

(* All output is accumulated in one buffer so the daemon can ship it
   as a JSON string; the CLI prints the buffer verbatim. Every float
   goes through Report.Decimal, whose bytes are Printf's: [Fixed (d, v)]
   is "%.<d>f" and [General v] is "%g". *)

type piece = Text of string | Int of int | General of float | Fixed of int * float

let add b pieces =
  List.iter
    (function
      | Text s -> Buffer.add_string b s
      | Int i -> Buffer.add_string b (Int.to_string i)
      | General v -> Report.Decimal.add_general b 6 v
      | Fixed (d, v) -> Report.Decimal.add_fixed b d v)
    pieces

(* Just under 2 KiB, the largest block the minor heap allocates (256
   words): a typical answer fits, and a 2 KiB buffer would go to the
   major heap on every request. *)
let initial_bytes = 2000

let solution_cell (s : Core.Optimum.solution) b = function
  | 0 -> Report.Decimal.add_general b 6 s.sigma1
  | 1 -> Report.Decimal.add_general b 6 s.sigma2
  | 2 -> Report.Decimal.add_fixed b 1 s.w_opt
  | 3 -> Report.Decimal.add_fixed b 1 s.w_energy
  | 4 ->
      Buffer.add_char b '[';
      Report.Decimal.add_fixed b 0 s.window.Core.Feasibility.w_min;
      Buffer.add_string b ", ";
      Report.Decimal.add_fixed b 0 s.window.Core.Feasibility.w_max;
      Buffer.add_char b ']'
  | 5 -> Report.Decimal.add_fixed b 2 s.energy_overhead
  | 6 -> Report.Decimal.add_fixed b 4 s.time_overhead
  | _ -> Buffer.add_string b (if s.bound_active then "active" else "-")

let print_solutions b (result : Core.Bicrit.result) =
  let table =
    Report.Table.create
      ~header:
        [ "sigma1"; "sigma2"; "Wopt"; "We"; "window"; "E/W"; "T/W"; "bound" ]
      ()
  in
  List.iter
    (fun s -> Report.Table.add_row_with table (solution_cell s))
    result.candidates;
  Report.Table.render_to b table;
  let best = result.best in
  add b
    [
      Text "\nbest pair: ("; General best.sigma1; Text ", ";
      General best.sigma2; Text "), Wopt = "; Fixed (1, best.w_opt);
      Text ", energy overhead = "; Fixed (2, best.energy_overhead);
      Text " mW, time overhead = "; Fixed (4, best.time_overhead);
      Text " s/unit\n";
    ]

let optimize ?(mode = Core.Bicrit.Two_speeds) ?journal ?on_resume ~env ~name
    ~rho () =
  let b = Buffer.create initial_bytes in
  add b [ Text "configuration: "; Text name; Text "\n" ];
  Core.Env.add_text b env;
  Buffer.add_string b "\n\n";
  match Core.Bicrit.solve ~mode ?journal ?on_resume env ~rho with
  | None ->
      add b
        [
          Text "no feasible speed pair for rho = "; General rho;
          Text " (minimum feasible rho: ";
          Fixed (4, Core.Bicrit.min_feasible_rho env); Text ")\n";
        ];
      { output = Buffer.contents b; ok = false }
  | Some result ->
      print_solutions b result;
      (* The single-speed optimum is the two-speed result's diagonal:
         no second solve, and none at all in single-speed mode, which
         prints no saving. *)
      (match mode with
      | Core.Bicrit.Two_speeds -> (
          match Core.Bicrit.energy_saving result with
          | Some saving ->
              add b
                [
                  Text "saving vs best single speed: ";
                  Fixed (1, 100. *. saving); Text "%\n";
                ]
          | None -> ())
      | Core.Bicrit.Single_speed -> ());
      { output = Buffer.contents b; ok = true }

let frontier ?journal ?on_resume ~env ~name () =
  let b = Buffer.create initial_bytes in
  let f = Sweep.Frontier.compute ~label:name ?journal ?on_resume env in
  add b
    [
      Text "time/energy Pareto frontier for "; Text name; Text " (";
      Int (List.length f.Sweep.Frontier.points);
      Text " non-dominated points)\n\n";
    ];
  let table =
    Report.Table.create
      ~header:[ "rho"; "T/W"; "E/W (mW)"; "sigma1"; "sigma2"; "Wopt" ]
      ()
  in
  List.iter
    (fun (p : Sweep.Frontier.point) ->
      Report.Table.add_row_with table (fun cell -> function
        | 0 -> Report.Decimal.add_fixed cell 3 p.rho
        | 1 -> Report.Decimal.add_fixed cell 4 p.time_overhead
        | 2 -> Report.Decimal.add_fixed cell 1 p.energy_overhead
        | 3 -> Report.Decimal.add_general cell 6 p.solution.Core.Optimum.sigma1
        | 4 -> Report.Decimal.add_general cell 6 p.solution.Core.Optimum.sigma2
        | _ -> Report.Decimal.add_fixed cell 0 p.solution.Core.Optimum.w_opt))
    f.Sweep.Frontier.points;
  Report.Table.render_to b table;
  (match Sweep.Frontier.knee f with
  | Some k ->
      add b
        [
          Text "\nknee (diminishing returns): rho = "; Fixed (3, k.rho);
          Text ", T/W = "; Fixed (4, k.time_overhead); Text ", E/W = ";
          Fixed (1, k.energy_overhead); Text "\n";
        ]
  | None -> ());
  { output = Buffer.contents b; ok = true }

let evaluate ~env ~w ~sigma1 ~sigma2 ~replicas () =
  let b = Buffer.create 1024 in
  let params = env.Core.Env.params and power = env.Core.Env.power in
  add b
    [
      Text "pattern: W = "; General w; Text " at ("; General sigma1;
      Text ", "; General sigma2; Text ")\n\n";
    ];
  let fo_time =
    Core.First_order.eval (Core.First_order.time params ~sigma1 ~sigma2) ~w
  in
  let fo_energy =
    Core.First_order.eval
      (Core.First_order.energy params power ~sigma1 ~sigma2)
      ~w
  in
  let overheads label time energy =
    add b
      [
        Text label; Text "T/W = "; Fixed (6, time); Text " s/unit,  E/W = ";
        Fixed (4, energy); Text " mW\n";
      ]
  in
  overheads "first-order:  " fo_time fo_energy;
  overheads "exact:        "
    (Core.Exact.time_overhead params ~w ~sigma1 ~sigma2)
    (Core.Exact.energy_overhead params power ~w ~sigma1 ~sigma2);
  let d = Core.Distribution.make params ~w ~sigma1 ~sigma2 in
  add b
    [
      Text "distribution: P(no re-execution) = ";
      Fixed (4, Core.Distribution.pmf d 0); Text ", stddev(T) = ";
      Fixed (2, Core.Distribution.stddev_time d); Text " s, p99(T) = ";
      Fixed (1, Core.Distribution.quantile_time d 0.99); Text " s\n";
    ];
  if replicas > 0 then begin
    let model = Core.Mixed.of_params params ~fail_stop_fraction:0. in
    let est =
      Sim.Montecarlo.pattern_estimate ~replicas ~seed:42 ~model ~power ~w
        ~sigma1 ~sigma2 ()
    in
    add b
      [
        Text "simulated:    mean T = ";
        Fixed (2, est.Sim.Montecarlo.time.Numerics.Stats.mean); Text " +/- ";
        Fixed (2, est.Sim.Montecarlo.time.Numerics.Stats.std_error);
        Text " s over "; Int replicas; Text " replicas (model says ";
        Fixed (2, Core.Mixed.expected_time model ~w ~sigma1 ~sigma2);
        Text ")\n";
      ]
  end;
  { output = Buffer.contents b; ok = true }
